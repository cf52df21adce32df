/**
 * @file
 * Parallel experiment executor.
 *
 * Every figure in the paper is a sweep of independent simulation runs
 * (load points, presets, bisection probes). Each run owns its network,
 * kernel, and xoshiro256** streams, so runs are embarrassingly
 * parallel and bit-deterministic regardless of which thread executes
 * them. The executor is a fixed-size thread pool with a FIFO work
 * queue; results are returned in submission order, so a parallel sweep
 * yields exactly the vector a serial loop would.
 *
 * Thread-count resolution: a request of 0 means "one per hardware
 * thread"; 1 executes jobs inline on the calling thread (no pool, no
 * overhead — the serial path benches compare against); n > 1 spawns n
 * workers.
 */

#ifndef FRFC_HARNESS_PARALLEL_HPP
#define FRFC_HARNESS_PARALLEL_HPP

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "network/runner.hpp"

namespace frfc {

/**
 * Resolve a `run.threads` request into a concrete worker count:
 * 0 => std::thread::hardware_concurrency(), clamped to >= 1;
 * n > 0 => n. Negative requests are user errors (fatal()).
 */
int resolveThreads(int requested);

/** Fixed-size thread pool running whole simulation points. */
class ParallelExecutor
{
  public:
    /** @param threads worker count request (see resolveThreads()). */
    explicit ParallelExecutor(int threads = 0);
    ~ParallelExecutor();

    ParallelExecutor(const ParallelExecutor&) = delete;
    ParallelExecutor& operator=(const ParallelExecutor&) = delete;

    /** Resolved worker count (1 = inline execution). */
    int threadCount() const { return threads_; }

    /**
     * Queue one simulation point; the future resolves with its result.
     * With threadCount() == 1 the job runs inline before returning.
     */
    std::future<RunResult> submit(const Config& cfg,
                                  const RunOptions& opt);

    /** Queue an arbitrary job producing a RunResult. */
    std::future<RunResult> submit(std::function<RunResult()> job);

    /** Block until every queued job has finished. */
    void drain();

  private:
    void workerLoop();

    int threads_;
    std::vector<std::thread> workers_;
    std::deque<std::packaged_task<RunResult()>> queue_;
    std::mutex mutex_;
    std::condition_variable work_ready_;
    std::condition_variable queue_idle_;
    int in_flight_ = 0;
    bool stopping_ = false;
};

/**
 * Copy of @p cfg with `run.threads` set to @p runs: the number of
 * simulations sharing the host at once, among which `sim.shards=auto`
 * divides the hardware threads (autoShardCount() in sim/shard.hpp).
 * Every harness entry point stamps the concurrency it really runs at,
 * so a point never sizes its shards from the user's worker request.
 */
Config withConcurrentRuns(const Config& cfg, int runs);

/**
 * Run every config as an independent simulation point, using
 * resolveThreads(opt.threads) workers, and return the results in the
 * order of @p points. Bit-identical to a serial runExperiment() loop
 * for every thread count (wall-clock fields excepted).
 */
std::vector<RunResult>
runExperiments(const std::vector<Config>& points, const RunOptions& opt);

}  // namespace frfc

#endif  // FRFC_HARNESS_PARALLEL_HPP
