#include "predict_engine.h"

namespace uops::server {

class PredictEngine::SeatLease
{
  public:
    explicit SeatLease(PredictEngine &engine) : engine_(engine)
    {
        std::unique_lock<std::mutex> lock(engine_.mutex_);
        const size_t max_inflight = engine_.options_.max_inflight;
        if (engine_.inflight_ >= max_inflight) {
            engine_.rejected_.fetch_add(1, std::memory_order_relaxed);
            throw PredictOverloaded(
                "prediction queue is full (" +
                    std::to_string(max_inflight) +
                    " requests in flight); retry shortly",
                max_inflight);
        }
        ++engine_.inflight_;
        engine_.seat_freed_.wait(
            lock, [this] { return !engine_.free_seats_.empty(); });
        seat_ = engine_.free_seats_.back();
        engine_.free_seats_.pop_back();
    }

    ~SeatLease()
    {
        {
            std::lock_guard<std::mutex> lock(engine_.mutex_);
            engine_.free_seats_.push_back(seat_);
            --engine_.inflight_;
        }
        engine_.seat_freed_.notify_one();
    }

    SeatLease(const SeatLease &) = delete;
    SeatLease &operator=(const SeatLease &) = delete;

    Seat &seat() { return *seat_; }

  private:
    PredictEngine &engine_;
    Seat *seat_ = nullptr;
};

PredictEngine::PredictEngine(const isa::InstrDb &instrs,
                             Options options)
    : instrs_(instrs), options_(options),
      seats_(std::max<size_t>(1, options.num_threads))
{
    for (Seat &seat : seats_)
        free_seats_.push_back(&seat);
}

PredictEngine::~PredictEngine() = default;

std::string
PredictEngine::fingerprint(uarch::UArch arch,
                           const isa::Kernel &body) const
{
    std::string key = uarch::uarchShortName(arch);
    key += '\0';
    key += sim::MeasurementCache::fingerprint(body,
                                              options_.predict.harness);
    return key;
}

sim::Measurement
PredictEngine::simulate(uarch::UArch arch, const isa::Kernel &body)
{
    SeatLease lease(*this);
    std::unique_ptr<sim::BlockPredictor> &predictor = lease.seat()[arch];
    if (!predictor) {
        predictor = std::make_unique<sim::BlockPredictor>(
            instrs_, arch, options_.predict);
        predictor->setCache(&sim_cache_);
    }
    sim::Measurement m = predictor->predict(body);
    simulations_.fetch_add(1, std::memory_order_relaxed);
    return m;
}

PredictEngine::Stats
PredictEngine::stats() const
{
    Stats out;
    out.simulations = simulations_.load(std::memory_order_relaxed);
    out.coalesced = sim_cache_.waits();
    out.rejected = rejected_.load(std::memory_order_relaxed);
    out.sim_cache_hits = sim_cache_.hits();
    out.sim_cache_misses = sim_cache_.misses();
    out.sim_cache_entries = sim_cache_.size();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out.inflight = inflight_;
    }
    out.workers = seats_.size();
    return out;
}

} // namespace uops::server
