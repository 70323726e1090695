/**
 * @file
 * ProcessPool: the one place that starts, watches, stops and
 * classifies child processes — for ExperimentRunner's crash-isolated
 * cells and the DSE sweep supervisor's shard workers alike.
 *
 * Each child runs a body that writes to a pipe, then _Exits.  The pool
 * multiplexes the pipes, appends received bytes to each child's
 * buffer, SIGKILLs a child that stays silent for the idle timeout
 * (reported as timed out), and reaps at EOF with an EINTR-safe waitpid
 * (the sweep's interrupt handler has no SA_RESTART).  Retry,
 * quarantine and payload policy stay with the callers.  Single
 * threaded: use it from one thread, never from inside a child body.
 */

#ifndef CHARON_HARNESS_PROCESS_POOL_HH
#define CHARON_HARNESS_PROCESS_POOL_HH

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace charon::harness
{

/** write(2) the whole buffer, retrying on EINTR / short writes. */
bool writeAll(int fd, const char *data, std::size_t size);

class ProcessPool
{
  public:
    using Clock = std::chrono::steady_clock;

    /** A reaped child: how it ended, and the bytes left in its buffer. */
    struct Exited
    {
        pid_t pid = -1;
        bool timedOut = false; ///< idle watchdog (signal is SIGKILL)
        int signal = 0;        ///< terminating signal; 0 if it exited
        int code = 0;          ///< exit code when signal == 0
        std::string buf;
    };

    /** Sees a child's buffer after new bytes land in it; may consume
     *  (erase) what it has parsed, but must not call into the pool. */
    using BytesFn = std::function<void(pid_t, std::string &)>;

    /** @param idleTimeoutSec watchdog; <= 0 disables it. */
    explicit ProcessPool(double idleTimeoutSec = 0);
    /** SIGKILLs and reaps every child still running. */
    ~ProcessPool();

    ProcessPool(const ProcessPool &) = delete;
    ProcessPool &operator=(const ProcessPool &) = delete;

    /**
     * Fork a child running @p body on its pipe's write end, then
     * _Exit(0); an exception escaping @p body exits 1.
     * @return the child's pid, or -1 if pipe(2) or fork(2) failed.
     */
    pid_t spawn(const std::function<void(int fd)> &body);

    /** Children spawned and not yet reaped. */
    std::size_t size() const { return children_.size(); }

    /**
     * Wait up to @p maxWaitSec (less if a watchdog deadline is nearer;
     * a signal returns early) for pipe activity, deliver bytes, enforce
     * the watchdog, and reap every child at EOF.  With no children it
     * just sleeps.
     */
    std::vector<Exited> poll(double maxWaitSec,
                             const BytesFn &onBytes = {});

    /**
     * SIGTERM every child and keep polling for up to @p drainSec, then
     * SIGKILL and reap the stragglers.  Returns every child reaped.
     */
    std::vector<Exited> terminate(double drainSec,
                                  const BytesFn &onBytes = {});

    /** Exponential backoff: @p baseSec * 2^min(@p failures, 6). */
    static double backoffSec(double baseSec, int failures);

    /** The time point @p sec seconds from now. */
    static Clock::time_point after(double sec);

  private:
    struct Child
    {
        pid_t pid;
        int fd;
        std::string buf;
        Clock::time_point lastBytes;
        bool timedOut = false;
    };

    /** Close @p c's pipe and waitpid it (EINTR-safe). */
    static Exited reap(Child &c);

    Clock::duration idleTimeout_;
    std::vector<Child> children_;
};

} // namespace charon::harness

#endif // CHARON_HARNESS_PROCESS_POOL_HH
