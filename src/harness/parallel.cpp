#include "harness/parallel.hpp"

#include <algorithm>
#include <utility>

#include "common/log.hpp"
#include "network/network.hpp"

namespace frfc {

int
resolveThreads(int requested)
{
    if (requested < 0)
        fatal("run.threads must be >= 0 (0 = one per hardware thread), "
              "got ", requested);
    if (requested > 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

ParallelExecutor::ParallelExecutor(int threads)
    : threads_(resolveThreads(threads))
{
    if (threads_ == 1)
        return;  // inline mode: no workers, submit() executes directly
    workers_.reserve(static_cast<std::size_t>(threads_));
    for (int i = 0; i < threads_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ParallelExecutor::~ParallelExecutor()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    work_ready_.notify_all();
    for (std::thread& w : workers_)
        w.join();
}

std::future<RunResult>
ParallelExecutor::submit(const Config& cfg, const RunOptions& opt)
{
    return submit([cfg, opt] { return runExperiment(cfg, opt); });
}

std::future<RunResult>
ParallelExecutor::submit(std::function<RunResult()> job)
{
    std::packaged_task<RunResult()> task(std::move(job));
    std::future<RunResult> result = task.get_future();
    if (threads_ == 1) {
        task();  // inline: the calling thread is the worker
        return result;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    work_ready_.notify_one();
    return result;
}

void
ParallelExecutor::drain()
{
    if (threads_ == 1)
        return;
    std::unique_lock<std::mutex> lock(mutex_);
    queue_idle_.wait(lock,
                     [this] { return queue_.empty() && in_flight_ == 0; });
}

void
ParallelExecutor::workerLoop()
{
    for (;;) {
        std::packaged_task<RunResult()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_ready_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return;  // stopping, nothing left to run
            task = std::move(queue_.front());
            queue_.pop_front();
            ++in_flight_;
        }
        task();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --in_flight_;
            if (queue_.empty() && in_flight_ == 0)
                queue_idle_.notify_all();
        }
    }
}

Config
withConcurrentRuns(const Config& cfg, int runs)
{
    Config point = cfg;
    point.set("run.threads", runs);
    return point;
}

std::vector<RunResult>
runExperiments(const std::vector<Config>& points, const RunOptions& opt)
{
    ParallelExecutor pool(opt.threads);
    // Points beyond the worker count queue rather than run at once.
    const int runs = static_cast<int>(std::min(
        points.size(), static_cast<std::size_t>(pool.threadCount())));
    std::vector<std::future<RunResult>> futures;
    futures.reserve(points.size());
    for (const Config& point : points)
        futures.push_back(pool.submit(withConcurrentRuns(point, runs), opt));
    std::vector<RunResult> results;
    results.reserve(points.size());
    for (auto& f : futures)
        results.push_back(f.get());  // submission order preserved
    return results;
}

}  // namespace frfc
