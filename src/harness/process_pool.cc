#include "process_pool.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <thread>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

namespace charon::harness
{

bool
writeAll(int fd, const char *data, std::size_t size)
{
    while (size > 0) {
        ssize_t n = ::write(fd, data, size);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

ProcessPool::ProcessPool(double idleTimeoutSec)
    : idleTimeout_(std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(std::max(0.0, idleTimeoutSec))))
{
}

ProcessPool::~ProcessPool()
{
    for (auto &c : children_) {
        ::kill(c.pid, SIGKILL);
        reap(c);
    }
}

double
ProcessPool::backoffSec(double baseSec, int failures)
{
    return baseSec * static_cast<double>(1 << std::min(failures, 6));
}

ProcessPool::Clock::time_point
ProcessPool::after(double sec)
{
    return Clock::now()
           + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(sec));
}

pid_t
ProcessPool::spawn(const std::function<void(int fd)> &body)
{
    int fds[2];
    if (::pipe(fds) != 0)
        return -1;
    pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        return -1;
    }
    if (pid == 0) {
        // Never return into the caller's loop; _Exit skips atexit
        // handlers and inherited stdio buffers.
        ::close(fds[0]);
        try {
            body(fds[1]);
        } catch (...) {
            std::_Exit(1);
        }
        ::close(fds[1]);
        std::_Exit(0);
    }
    ::close(fds[1]);
    children_.push_back(Child{pid, fds[0], {}, Clock::now()});
    return pid;
}

ProcessPool::Exited
ProcessPool::reap(Child &c)
{
    ::close(c.fd);
    int status = 0;
    while (::waitpid(c.pid, &status, 0) < 0 && errno == EINTR) {
    }
    Exited out{c.pid, c.timedOut, 0, 0, std::move(c.buf)};
    if (WIFSIGNALED(status))
        out.signal = WTERMSIG(status);
    else if (WIFEXITED(status))
        out.code = WEXITSTATUS(status);
    return out;
}

std::vector<ProcessPool::Exited>
ProcessPool::poll(double maxWaitSec, const BytesFn &onBytes)
{
    std::vector<Exited> out;
    if (children_.empty()) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(std::max(0.0, maxWaitSec)));
        return out;
    }

    auto wake = after(std::max(0.0, maxWaitSec));
    if (idleTimeout_.count() > 0) {
        for (const auto &c : children_)
            if (!c.timedOut)
                wake = std::min(wake, c.lastBytes + idleTimeout_);
    }
    const auto waitMs = std::chrono::ceil<std::chrono::milliseconds>(
        wake - Clock::now());
    std::vector<pollfd> fds(children_.size());
    for (std::size_t k = 0; k < children_.size(); ++k)
        fds[k] = pollfd{children_[k].fd, POLLIN, 0};
    // EINTR leaves every revents at 0: nothing is read, and the caller
    // gets control back promptly to look at its interrupt flag.
    ::poll(fds.data(), fds.size(),
           static_cast<int>(std::max<std::int64_t>(0, waitMs.count())));

    const auto now = Clock::now();
    std::size_t k = 0; // fds[k] stays aligned with *it across erases
    for (auto it = children_.begin(); it != children_.end(); ++k) {
        if (fds[k].revents & (POLLIN | POLLHUP | POLLERR)) {
            char chunk[65536];
            ssize_t n = ::read(it->fd, chunk, sizeof(chunk));
            if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN)) {
                out.push_back(reap(*it));
                it = children_.erase(it);
                continue;
            }
            if (n > 0) {
                it->buf.append(chunk, static_cast<std::size_t>(n));
                it->lastBytes = now;
                if (onBytes)
                    onBytes(it->pid, it->buf);
            }
        }
        // Idle watchdog: the killed child reaches EOF and is reaped,
        // flagged timed out, on a later call.
        if (idleTimeout_.count() > 0 && !it->timedOut
            && now - it->lastBytes >= idleTimeout_) {
            it->timedOut = true;
            ::kill(it->pid, SIGKILL);
        }
        ++it;
    }
    return out;
}

std::vector<ProcessPool::Exited>
ProcessPool::terminate(double drainSec, const BytesFn &onBytes)
{
    for (const auto &c : children_)
        ::kill(c.pid, SIGTERM);
    std::vector<Exited> out;
    const auto deadline = after(drainSec);
    while (!children_.empty() && Clock::now() < deadline) {
        const double left =
            std::chrono::duration<double>(deadline - Clock::now()).count();
        for (auto &e : poll(left, onBytes))
            out.push_back(std::move(e));
    }
    for (auto &c : children_) {
        ::kill(c.pid, SIGKILL);
        out.push_back(reap(c));
    }
    children_.clear();
    return out;
}

} // namespace charon::harness
