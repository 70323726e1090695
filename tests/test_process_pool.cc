/**
 * @file
 * ProcessPool contracts: byte delivery, exit/signal classification,
 * the idle watchdog, EINTR-safe reaping, and terminate's drain window.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harness/process_pool.hh"

namespace
{

using charon::harness::ProcessPool;
using charon::harness::writeAll;
using Clock = std::chrono::steady_clock;

void
say(int fd, const std::string &msg)
{
    writeAll(fd, msg.data(), msg.size());
}

/** Poll @p pool until it is empty; return every exit by pid. */
std::map<pid_t, ProcessPool::Exited>
drain(ProcessPool &pool, const ProcessPool::BytesFn &onBytes = {})
{
    std::map<pid_t, ProcessPool::Exited> out;
    const auto giveUp = Clock::now() + std::chrono::seconds(20);
    while (pool.size() > 0 && Clock::now() < giveUp) {
        for (auto &ex : pool.poll(0.2, onBytes))
            out.emplace(ex.pid, std::move(ex));
    }
    return out;
}

/** No child of this process is left to reap (none became a zombie). */
void
expectNoLeftoverChild()
{
    int status = 0;
    errno = 0;
    EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
}

volatile std::sig_atomic_t alarms = 0;

void
onAlarm(int)
{
    alarms = alarms + 1;
}

volatile std::sig_atomic_t termSeen = 0;

void
onTerm(int)
{
    termSeen = 1;
}

TEST(ProcessPool, DeliversBytesAndClassifiesExits)
{
    ProcessPool pool;
    const pid_t ok = pool.spawn([](int fd) { say(fd, "payload"); });
    const pid_t stopped = pool.spawn([](int) { std::_Exit(130); });
    const pid_t failed = pool.spawn([](int) { std::_Exit(3); });
    const pid_t aborted = pool.spawn([](int) { std::abort(); });
    const pid_t threw = pool.spawn([](int) { throw 7; });
    ASSERT_GT(ok, 0);
    ASSERT_GT(aborted, 0);
    EXPECT_EQ(pool.size(), 5u);

    auto exits = drain(pool);
    ASSERT_EQ(exits.size(), 5u);
    EXPECT_EQ(exits.at(ok).buf, "payload");
    EXPECT_EQ(exits.at(ok).code, 0);
    EXPECT_EQ(exits.at(ok).signal, 0);
    EXPECT_EQ(exits.at(stopped).code, 130);
    EXPECT_EQ(exits.at(failed).code, 3);
    EXPECT_EQ(exits.at(aborted).signal, SIGABRT);
    EXPECT_EQ(exits.at(threw).code, 1);
    for (const auto &[pid, ex] : exits)
        EXPECT_FALSE(ex.timedOut) << pid;
    expectNoLeftoverChild();
}

TEST(ProcessPool, OnBytesMayConsumeTheBuffer)
{
    ProcessPool pool;
    const pid_t pid = pool.spawn([](int fd) {
        say(fd, "a\n");
        say(fd, "b\nrest");
    });
    std::string lines;
    auto exits = drain(pool, [&](pid_t, std::string &buf) {
        std::size_t pos;
        while ((pos = buf.find('\n')) != std::string::npos) {
            lines += buf.substr(0, pos);
            buf.erase(0, pos + 1);
        }
    });
    EXPECT_EQ(lines, "ab");
    EXPECT_EQ(exits.at(pid).buf, "rest");
}

TEST(ProcessPool, IdleWatchdogKillsOnlySilentChildren)
{
    ProcessPool pool(0.3);
    const pid_t silent = pool.spawn([](int) {
        std::this_thread::sleep_for(std::chrono::seconds(30));
    });
    // Chatty for well past the idle timeout: bytes keep it alive.
    const pid_t chatty = pool.spawn([](int fd) {
        for (int i = 0; i < 8; ++i) {
            say(fd, ".");
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
    });
    const auto start = Clock::now();
    auto exits = drain(pool);
    EXPECT_LT(Clock::now() - start, std::chrono::seconds(10));

    const auto &s = exits.at(silent);
    EXPECT_TRUE(s.timedOut);
    EXPECT_EQ(s.signal, SIGKILL);
    const auto &c = exits.at(chatty);
    EXPECT_FALSE(c.timedOut);
    EXPECT_EQ(c.signal, 0);
    EXPECT_EQ(c.code, 0);
    EXPECT_EQ(c.buf, "........");
    expectNoLeftoverChild();
}

TEST(ProcessPool, ReapSurvivesEintrAndReportsTheRealSignal)
{
    // The interrupt handler the sweep installs has no SA_RESTART, so
    // waitpid can fail with EINTR while a child is still dying.  A
    // repeating SIGALRM reproduces that: the child closes its pipe at
    // once (EOF), then takes ~200 ms to die, and every tick lands in
    // the parent's reap.
    struct sigaction sa = {};
    struct sigaction old = {};
    sa.sa_handler = onAlarm;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    ASSERT_EQ(::sigaction(SIGALRM, &sa, &old), 0);
    itimerval tick = {{0, 5000}, {0, 5000}};
    ASSERT_EQ(::setitimer(ITIMER_REAL, &tick, nullptr), 0);

    ProcessPool pool;
    const pid_t pid = pool.spawn([](int fd) {
        ::close(fd);
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        // Default disposition, so a sanitizer's SEGV handler cannot
        // turn the signal death into an exit code.
        std::signal(SIGSEGV, SIG_DFL);
        ::raise(SIGSEGV);
    });
    ASSERT_GT(pid, 0);
    alarms = 0;
    auto exits = drain(pool);

    itimerval off = {};
    ::setitimer(ITIMER_REAL, &off, nullptr);
    ::sigaction(SIGALRM, &old, nullptr);

    EXPECT_GT(alarms, 5) << "the timer must interrupt the reap";
    ASSERT_EQ(exits.size(), 1u);
    EXPECT_EQ(exits.at(pid).signal, SIGSEGV);
    EXPECT_FALSE(exits.at(pid).timedOut);
    expectNoLeftoverChild();
}

TEST(ProcessPool, TerminateDrainsThenKillsStragglers)
{
    ProcessPool pool;
    // Exits cleanly (after a last message) once SIGTERM arrives.
    const pid_t polite = pool.spawn([](int fd) {
        std::signal(SIGTERM, onTerm);
        say(fd, "ready\n");
        while (!termSeen)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        say(fd, "bye\n");
        std::_Exit(130);
    });
    // Ignores SIGTERM: only the post-window SIGKILL stops it.
    const pid_t stubborn = pool.spawn([](int fd) {
        std::signal(SIGTERM, SIG_IGN);
        say(fd, "ready\n");
        std::this_thread::sleep_for(std::chrono::seconds(30));
    });

    std::map<pid_t, std::string> seen;
    auto onBytes = [&](pid_t pid, std::string &buf) {
        seen[pid] += buf;
        buf.clear();
    };
    // Both handlers are installed before the fan-out.
    const auto giveUp = Clock::now() + std::chrono::seconds(20);
    while ((seen[polite].empty() || seen[stubborn].empty())
           && Clock::now() < giveUp)
        ASSERT_TRUE(pool.poll(0.2, onBytes).empty());

    const double drainSec = 0.5;
    const auto start = Clock::now();
    std::map<pid_t, ProcessPool::Exited> exits;
    for (const auto &ex : pool.terminate(drainSec, onBytes))
        exits.emplace(ex.pid, ex);
    const auto took = Clock::now() - start;

    EXPECT_EQ(pool.size(), 0u);
    ASSERT_EQ(exits.size(), 2u);
    EXPECT_EQ(exits.at(polite).signal, 0);
    EXPECT_EQ(exits.at(polite).code, 130);
    EXPECT_EQ(seen[polite], "ready\nbye\n")
        << "bytes written inside the window are still delivered";
    EXPECT_EQ(exits.at(stubborn).signal, SIGKILL);
    EXPECT_GE(took, std::chrono::milliseconds(450));
    EXPECT_LT(took, std::chrono::seconds(10));
    expectNoLeftoverChild();
}

TEST(ProcessPool, DestructorReapsEveryChild)
{
    {
        ProcessPool pool;
        pool.spawn([](int) {
            std::this_thread::sleep_for(std::chrono::seconds(30));
        });
    }
    expectNoLeftoverChild();
}

TEST(ProcessPool, BackoffDoublesAndCaps)
{
    EXPECT_DOUBLE_EQ(ProcessPool::backoffSec(0.1, 0), 0.1);
    EXPECT_DOUBLE_EQ(ProcessPool::backoffSec(0.1, 3), 0.8);
    EXPECT_DOUBLE_EQ(ProcessPool::backoffSec(0.1, 6), 6.4);
    EXPECT_DOUBLE_EQ(ProcessPool::backoffSec(0.1, 20), 6.4);
}

} // namespace
