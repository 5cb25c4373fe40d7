// End-to-end facade benchmark for the TelegraphCQ engine.
//
//   tcq_perfbench --workload <cacq_filters|join_sharded|window_event>
//                 --seed <n> --seconds <s> --trace <0|1>
//   tcq_perfbench --self-test
//
// One process drives the engine only through the TelegraphCQ facade, with
// three generator threads: the producer (this thread), a consumer polling
// every client, and a churn thread submitting and cancelling one query at a
// fixed cadence. Each run has a paced phase (open loop at a fixed rate:
// latency and idle cost) and a saturated phase (closed loop with a fixed
// number of batches outstanding: throughput). A batch counts as
// acknowledged once every standing client has seen it fully processed:
// continuous clients through the stream's event-time punctuation reaching
// their egress, windowed clients through the fired window whose right edge
// the batch's watermark passed. Outputs are checked against a reference
// computed from the regenerated inputs alone. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <pthread.h>
#include <sys/prctl.h>

#include <array>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "server/telegraphcq.h"
#include "workloads.h"

namespace perfbench {
namespace {

using tcq::Delivery;
using tcq::SourceId;
using tcq::Status;
using tcq::TelegraphCQ;

// Share of --seconds spent in each phase; churn runs through all three.
constexpr double kWarmupShare = 0.05;
constexpr double kPacedShare = 0.40;
constexpr double kSaturatedShare = 0.55;
// Churn cadence: a query is submitted every period and cancelled `live`
// later.
constexpr int64_t kChurnPeriodNs = 200'000'000;
constexpr int64_t kChurnLiveNs = 100'000'000;
// Traced runs alternate tracing on and off in slices of this length during
// the saturated phase, to measure the tracing overhead.
constexpr int64_t kTraceSliceNs = 250'000'000;
// Latency, throughput and CPU per tuple are summarized per slice of this
// length (by due time in the paced phase, by acknowledgement time in the
// saturated phase). A run reports the median over the half of its slices
// in which the hypervisor stole the least CPU time from this machine: on a
// shared host, steal stalls every thread at random and would otherwise set
// the run-to-run spread. The selection reads only the host's counters,
// never the metric.
constexpr int64_t kSliceNs = 500'000'000;
// The paced producer keeps at most this many tuples unacknowledged: a host
// stall longer than the engine's fjords can buffer would otherwise make the
// engine drop tuples (see CHANGES.md). Waiting here counts against latency,
// which is timed from the due time.
constexpr uint64_t kPacedMaxOutstanding = 2048;
// Empty sweeps over every continuous client before the consumer blocks on
// the first one's egress (each batch delivers a punctuation to it).
constexpr int kSpinSweeps = 2;
// Waiting on the engine longer than this fails the run.
constexpr int64_t kStallNs = 30'000'000'000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
};

// --- Shared producer/consumer state -----------------------------------------

struct Shared {
  BatchLog log;
  /// Every seq below this has begun its PushBuilt call.
  std::atomic<uint64_t> started_end{0};
  /// Acknowledged prefix of the batch log (guarded by ack_mu for waits).
  std::mutex ack_mu;
  std::condition_variable ack_cv;
  std::atomic<uint64_t> acked{0};
  /// Paced window for latency sampling: seqs in [paced_begin, paced_end)
  /// were due at paced_t0 + ((seq - paced_begin) / batch) * interval.
  std::atomic<uint64_t> paced_begin{UINT64_MAX};
  std::atomic<uint64_t> paced_end{UINT64_MAX};
  int64_t paced_t0 = 0;
  int64_t paced_interval = 0;
  uint64_t paced_batch = 1;
  std::atomic<bool> stop{false};

  int64_t DueOf(uint64_t seq) const {
    if (seq < paced_begin.load(std::memory_order_acquire) ||
        seq >= paced_end.load(std::memory_order_acquire)) {
      return 0;
    }
    return paced_t0 + int64_t((seq - paced_begin.load()) / paced_batch) *
                          paced_interval;
  }
};

// --- Consumer ------------------------------------------------------------------

class Consumer {
 public:
  Consumer(const Workload* w, Shared* shared,
           std::vector<TelegraphCQ::ClientHandle> standing,
           std::map<SourceId, int> stream_of_source, bool time_polls)
      : w_(w),
        shared_(shared),
        standing_(std::move(standing)),
        stream_of_source_(std::move(stream_of_source)),
        time_polls_(time_polls),
        digests_(standing_.size()),
        windows_(standing_.size()),
        wm_(standing_.size(), {INT64_MIN, INT64_MIN}),
        last_t_(standing_.size(), INT64_MIN),
        polled_(standing_.size(), 0) {
    ack_events_.reserve(1 << 20);
  }

  void Run() {
    // Continuous clients all see one punctuation per batch, so the consumer
    // can block on the first client's egress instead of spinning; window
    // buffers offer no blocking receive, so windowed clients are polled.
    tcq::PushEgress* block_on = standing_.empty() ? nullptr
                                                  : standing_[0].results.get();
    int idle_sweeps = 0;
    int64_t stop_deadline = 0;
    for (;;) {
      bool stopping = shared_->stop.load(std::memory_order_acquire);
      bool any = false;
      for (size_t i = 0; i < standing_.size(); ++i) any |= DrainStanding(i);
      {
        std::lock_guard<std::mutex> lock(churn_mu_);
        if (churn_state_ != kIdle) any |= DrainChurn();
        if (churn_state_ == kDetaching) {
          churn_state_ = kIdle;
          churn_cv_.notify_all();
        }
      }
      AdvanceAcks();
      // The pass above drained after stop was set; windowed clients may
      // still be firing the windows the last batches closed.
      if (stopping && stop_deadline == 0) stop_deadline = NowNs() + kStallNs;
      if (stopping && (FinalWindowsSeen() || NowNs() > stop_deadline)) break;
      if (any) {
        idle_sweeps = 0;
      } else if (block_on != nullptr && ++idle_sweeps > kSpinSweeps) {
        idle_sweeps = 0;
        Delivery d;
        if (block_on->Receive(&d)) Handle(0, d, &digests_[0], wm_[0].data(),
                                          nullptr, nullptr, &polled_[0]);
      } else {
        std::this_thread::yield();
      }
    }
  }

  // Churn thread side.
  void Attach(const TelegraphCQ::ClientHandle& h, ChurnLog* log) {
    std::lock_guard<std::mutex> lock(churn_mu_);
    churn_ = h;
    churn_log_ = log;
    churn_acked_[0].store(-1);
    churn_acked_[1].store(-1);
    churn_wm_[0] = churn_wm_[1] = INT64_MIN;
    churn_state_ = kLive;
  }
  /// After Cancel returned: waits for a final drain of the churned client.
  void Detach() {
    std::unique_lock<std::mutex> lock(churn_mu_);
    churn_state_ = kDetaching;
    churn_cv_.wait(lock, [&] { return churn_state_ == kIdle; });
    churn_ = {};
    churn_log_ = nullptr;
  }
  int64_t churn_acked(int stream) const { return churn_acked_[stream].load(); }
  /// Windowed clients: how many windows each standing query fires in all;
  /// the consumer stops only after it polled them. Call before stop.
  void ExpectFinalWindows(std::vector<uint64_t> n) {
    final_windows_ = std::move(n);
  }

  // Results, read after the thread is joined.
  const std::vector<Digest>& digests() const { return digests_; }
  const std::vector<WindowFold>& windows() const { return windows_; }
  /// Paced latency samples (us), by slice of due time.
  std::vector<std::vector<float>>& latency_us() { return latency_us_; }
  const std::vector<std::pair<int64_t, uint64_t>>& ack_events() const {
    return ack_events_;
  }
  const std::vector<uint64_t>& polled() const { return polled_; }
  uint64_t invalid() const { return invalid_; }
  const std::string& first_invalid() const { return first_invalid_; }
  uint64_t data_results() const { return data_results_; }
  uint64_t punctuations() const { return punctuations_; }
  int64_t poll_ns() const { return poll_ns_; }
  uint64_t timed_results() const { return timed_results_; }

 private:
  enum ChurnState { kIdle, kLive, kDetaching };

  bool FinalWindowsSeen() const {
    for (size_t q = 0; q < final_windows_.size(); ++q) {
      if (polled_[q] < final_windows_[q]) return false;
    }
    return true;
  }

  void Invalid(const std::string& what) {
    if (invalid_++ == 0) first_invalid_ = what;
  }

  // Records one latency sample in the slice of its due time.
  void Sample(int64_t due, int64_t now) {
    size_t slice = size_t((due - shared_->paced_t0) / kSliceNs);
    if (slice >= latency_us_.size()) latency_us_.resize(slice + 1);
    latency_us_[slice].push_back(float(now - due) / 1000.0f);
  }

  // Accounts one delivery polled from a continuous client's egress; returns
  // whether it was a data result.
  bool Handle(int q, const Delivery& d, Digest* digest, int64_t* wm,
              std::vector<ResultId>* ids, std::atomic<int64_t>* ack_out,
              uint64_t* polled) {
    ++*polled;
    if (d.tuple.IsPunctuation()) {
      ++punctuations_;
      tcq::Punctuation p = d.tuple.AsPunctuation();
      auto it = stream_of_source_.find(p.source);
      if (it == stream_of_source_.end()) {
        Invalid("punctuation from unknown source");
        return false;
      }
      int s = it->second;
      if (p.low_watermark > wm[s]) wm[s] = p.low_watermark;
      if (ack_out != nullptr) ack_out[s].store(wm[s]);
      return false;
    }
    ++data_results_;
    ResultId id;
    if (!d.tuple.IsData() || !w_->ContinuousResult(q, d.tuple, &id)) {
      Invalid("query " + std::to_string(q) + ": result " + d.tuple.ToString() +
              " does not match its regenerated input or predicate");
      return true;
    }
    digest->Add(w_->HashOf(id));
    if (ids != nullptr) ids->push_back(id);
    int64_t due = shared_->DueOf(id.a);
    if (w_->streams().size() > 1) {
      // A join result is timed from the later of its two inputs.
      int64_t due_b = shared_->DueOf(id.b);
      due = (due == 0 || due_b == 0) ? 0 : std::max(due, due_b);
    }
    if (due != 0) Sample(due, NowNs());
    return true;
  }

  // Polls one continuous egress dry; returns whether anything arrived.
  bool DrainEgress(tcq::PushEgress* egress, int q, Digest* digest,
                   int64_t* wm, std::vector<ResultId>* ids,
                   std::atomic<int64_t>* ack_out, uint64_t* polled) {
    Delivery d;
    bool any = false;
    int64_t t_start = time_polls_ ? NowNs() : 0;
    uint64_t n_data = 0;
    while (egress->Poll(&d)) {
      any = true;
      if (Handle(q, d, digest, wm, ids, ack_out, polled)) ++n_data;
    }
    if (time_polls_ && n_data > 0) {
      poll_ns_ += NowNs() - t_start;
      timed_results_ += n_data;
    }
    return any;
  }

  // Polls one window buffer dry. A standing query's windows are folded into
  // `fold`; a churned query's are kept whole, with their seqs, in `out`.
  bool DrainWindows(tcq::WindowResultBuffer* buf, int q, WindowFold* fold,
                    std::vector<WindowRec>* out, int64_t* last_t,
                    uint64_t* polled) {
    tcq::WindowResult r;
    bool any = false;
    while (buf->Poll(&r)) {
      any = true;
      ++*polled;
      int64_t now = NowNs();
      if (r.kind != tcq::WindowResultKind::kFinal) {
        Invalid("query " + std::to_string(q) + ": non-final window result");
        continue;
      }
      WindowRec rec;
      rec.t = r.t;
      for (const tcq::Tuple& t : r.tuples) {
        uint64_t seq = 0;
        if (!w_->WindowResult(q, r.t, t, &seq)) {
          Invalid("query " + std::to_string(q) + " window t=" +
                  std::to_string(r.t) + ": tuple " + t.ToString() +
                  " does not match its regenerated input, window or "
                  "predicate");
          continue;
        }
        rec.digest.Add(w_->HashOf({seq, 0}));
        if (out != nullptr) rec.seqs.push_back(seq);
      }
      data_results_ += r.tuples.size();
      if (last_t != nullptr) *last_t = std::max(*last_t, r.t);
      // Timed from the due time of the first batch whose watermark passed
      // the window's right edge.
      uint64_t b = shared_->log.FirstWatermarkAbove(r.t);
      if (b < shared_->log.size()) {
        int64_t due = shared_->log.at(b).due_ns;
        if (due != 0) Sample(due, now);
      }
      if (fold != nullptr) fold->Add(rec.t, rec.digest);
      if (out != nullptr) out->push_back(std::move(rec));
    }
    return any;
  }

  bool DrainStanding(size_t i) {
    const TelegraphCQ::ClientHandle& h = standing_[i];
    if (h.results != nullptr) {
      return DrainEgress(h.results.get(), int(i), &digests_[i], wm_[i].data(),
                         nullptr, nullptr, &polled_[i]);
    }
    return DrainWindows(h.windows.get(), int(i), &windows_[i], nullptr,
                        &last_t_[i], &polled_[i]);
  }

  bool DrainChurn() {
    int q = w_->ChurnQuery(churn_log_->cycle);
    uint64_t polled = 0;
    if (churn_.results != nullptr) {
      Digest ignored;
      return DrainEgress(churn_.results.get(), q, &ignored, churn_wm_,
                         &churn_log_->ids, churn_acked_, &polled);
    }
    return DrainWindows(churn_.windows.get(), q, nullptr,
                        &churn_log_->windows, nullptr, &polled);
  }

  bool BatchAcked(uint64_t b) const {
    const BatchInfo& info = shared_->log.at(b);
    if (w_->windowed()) {
      // Batch b was processed once a window fired whose right edge lies at
      // or above the previous batch's watermark: the punctuation that fired
      // it came from batch b or later.
      for (int64_t t : last_t_) {
        if (t == INT64_MIN) return false;
        if (b > 0 && shared_->log.at(b - 1).watermark > t) return false;
      }
      return true;
    }
    int64_t last = int64_t(info.end_seq) - 1;
    for (const auto& wm : wm_) {
      if (wm[info.stream] < last) return false;
    }
    return true;
  }

  void AdvanceAcks() {
    uint64_t n = shared_->log.size();
    uint64_t cursor = shared_->acked.load(std::memory_order_relaxed);
    uint64_t start = cursor;
    while (cursor < n && BatchAcked(cursor)) ++cursor;
    if (cursor == start) return;
    {
      std::lock_guard<std::mutex> lock(shared_->ack_mu);
      shared_->acked.store(cursor, std::memory_order_release);
    }
    shared_->ack_cv.notify_all();
    ack_events_.emplace_back(NowNs(), shared_->log.at(cursor - 1).end_seq);
  }

  const Workload* w_;
  Shared* shared_;
  std::vector<TelegraphCQ::ClientHandle> standing_;
  std::map<SourceId, int> stream_of_source_;
  bool time_polls_;

  std::vector<Digest> digests_;
  std::vector<WindowFold> windows_;
  std::vector<std::array<int64_t, 2>> wm_;
  std::vector<int64_t> last_t_;
  std::vector<uint64_t> polled_;
  std::vector<uint64_t> final_windows_;
  std::vector<std::vector<float>> latency_us_;
  std::vector<std::pair<int64_t, uint64_t>> ack_events_;
  uint64_t invalid_ = 0;
  std::string first_invalid_;
  uint64_t data_results_ = 0;
  uint64_t punctuations_ = 0;
  int64_t poll_ns_ = 0;
  uint64_t timed_results_ = 0;

  std::mutex churn_mu_;
  std::condition_variable churn_cv_;
  ChurnState churn_state_ = kIdle;
  TelegraphCQ::ClientHandle churn_;
  ChurnLog* churn_log_ = nullptr;
  int64_t churn_wm_[2] = {INT64_MIN, INT64_MIN};
  std::atomic<int64_t> churn_acked_[2] = {-1, -1};
};

// --- Producer ------------------------------------------------------------------

class Producer {
 public:
  Producer(const Workload* w, Shared* shared, TelegraphCQ* server)
      : w_(w), shared_(shared), server_(server),
        max_ts_(w->streams().size(), INT64_MIN) {}

  struct Built {
    std::optional<TelegraphCQ::BatchBuilder> builder;
    BatchInfo info;
    Status status;
  };

  Built Build(uint64_t first, size_t n) {
    Built out;
    int64_t t0 = NowNs();
    int s = w_->StreamOf(first);
    auto b = server_->NewBatch(w_->streams()[s]);
    if (!b.ok()) {
      out.status = b.status();
      return out;
    }
    std::vector<tcq::Value> vals;
    for (uint64_t seq = first; seq < first + n; ++seq) {
      w_->Row(seq, &vals);
      int64_t ts = w_->TimestampOf(seq);
      max_ts_[s] = std::max(max_ts_[s], ts);
      Status st = b->Append(ts, std::move(vals));
      if (!st.ok()) {
        out.status = st;
        return out;
      }
    }
    out.builder.emplace(std::move(*b));
    out.info = BatchInfo{first, first + n, s, w_->WatermarkFor(max_ts_[s]), 0};
    build_ns_ += NowNs() - t0;
    ++built_;
    return out;
  }

  /// Logs and pushes a built batch; returns whether PushBuilt succeeded.
  bool Push(Built* b, int64_t due_ns) {
    attempted_ += b->info.end_seq - b->info.first_seq;
    if (!b->status.ok() || !b->builder.has_value()) {
      NoteFailure(b->status, b->info.end_seq - b->info.first_seq);
      return false;
    }
    b->info.due_ns = due_ns;
    if (!shared_->log.Append(b->info, shared_->acked.load())) {
      NoteFailure(Status::ResourceExhausted("batch log full"),
                  b->info.end_seq - b->info.first_seq);
      return false;
    }
    shared_->started_end.store(b->info.end_seq, std::memory_order_release);
    int64_t t0 = NowNs();
    Status st = server_->PushBuilt(std::move(*b->builder));
    int64_t dt = NowNs() - t0;
    if (time_pushes_) push_us_.push_back(double(dt) / 1000.0);
    pushed_end_ = b->info.end_seq;
    if (!st.ok()) {
      NoteFailure(st, b->info.end_seq - b->info.first_seq);
      return false;
    }
    return true;
  }

  uint64_t next_seq() const { return pushed_end_; }
  uint64_t batches() const { return shared_->log.size(); }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::string& first_error() const { return first_error_; }
  void set_time_pushes(bool on) { time_pushes_ = on; }
  std::vector<double>& push_us() { return push_us_; }
  int64_t build_ns() const { return build_ns_; }
  uint64_t built() const { return built_; }
  void ResetBuildStats() {
    build_ns_ = 0;
    built_ = 0;
  }

 private:
  void NoteFailure(const Status& st, uint64_t n) {
    failed_ += n;
    if (first_error_.empty()) first_error_ = st.ToString();
  }

  const Workload* w_;
  Shared* shared_;
  TelegraphCQ* server_;
  std::vector<int64_t> max_ts_;
  uint64_t pushed_end_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::string first_error_;
  bool time_pushes_ = false;
  std::vector<double> push_us_;
  int64_t build_ns_ = 0;
  uint64_t built_ = 0;
};

// --- Output --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(num, sizeof(num), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// --- One run ---------------------------------------------------------------------

int RunWorkload(const Args& args, int64_t main_start_ns) {
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // The producer waits for due times with clock_nanosleep; a 1 ns timer
  // slack (this thread only) keeps its wake-ups on schedule.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  const int64_t seconds_ns = int64_t(args.seconds * 1e9);
  Verdict verdict;
  uint64_t churn_attempted = 0, churn_failed = 0;

  // --- Set-up: server, streams, standing queries, Start, first ack. -------
  TelegraphCQ::Options opts;
  w->ConfigureServer(&opts);
  if (args.trace) {
    opts.trace.enabled = true;
    opts.trace.sample_period = 1;
  }
  auto server = std::make_unique<TelegraphCQ>(opts);
  Status st = w->DefineStreams(server.get());
  if (!st.ok()) {
    std::fprintf(stderr, "DefineStream failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::map<SourceId, int> stream_of_source;
  for (size_t s = 0; s < w->streams().size(); ++s) {
    auto entry = server->catalog().Lookup(w->streams()[s]);
    if (!entry.ok()) return 1;
    stream_of_source[entry->source] = int(s);
  }
  std::vector<TelegraphCQ::ClientHandle> standing;
  for (size_t q = 0; q < w->num_standing(); ++q) {
    auto h = server->Submit(w->StandingSql(int(q)));
    if (!h.ok()) {
      std::fprintf(stderr, "Submit of standing query %zu failed: %s\n", q,
                   h.status().ToString().c_str());
      return 1;
    }
    standing.push_back(*h);
  }
  server->Start();

  Shared shared;
  Consumer consumer(w.get(), &shared, standing, stream_of_source, args.trace);
  std::thread consumer_thread([&] { consumer.Run(); });
  Producer producer(w.get(), &shared, server.get());

  // Waits until at most `outstanding` pushed batches are unacknowledged.
  // Returns the nanoseconds spent waiting, or -1 on a stall.
  auto wait_acks = [&](uint64_t outstanding) -> int64_t {
    int64_t t0 = NowNs();
    std::unique_lock<std::mutex> lock(shared.ack_mu);
    while (producer.batches() - shared.acked.load() > outstanding) {
      shared.ack_cv.wait_for(lock, std::chrono::milliseconds(100));
      if (NowNs() - t0 > kStallNs) return -1;
    }
    return NowNs() - t0;
  };
  bool stalled = false;

  const size_t paced_batch = w->paced_batch();
  const size_t sat_batch = w->saturated_batch();
  const uint64_t depth = w->depth();
  // Set-up ends at the first acknowledged batch. A windowed client
  // acknowledges only once a window fires, which takes many batches, so
  // batches keep coming (one per 100 us without an acknowledgement).
  {
    const int64_t t0 = NowNs();
    while (shared.acked.load() == 0) {
      if (NowNs() - t0 > kStallNs) {
        stalled = true;
        break;
      }
      auto b = producer.Build(producer.next_seq(), paced_batch);
      producer.Push(&b, 0);
      std::unique_lock<std::mutex> lock(shared.ack_mu);
      shared.ack_cv.wait_for(lock, std::chrono::microseconds(100),
                             [&] { return shared.acked.load() > 0; });
    }
  }
  const double setup_s = double(NowNs() - main_start_ns) / 1e9;

  // --- Churn thread: one query submitted and cancelled per period. -------
  const int64_t churn_start = NowNs() + 1'000'000;
  const int64_t warm_end = churn_start + int64_t(kWarmupShare * seconds_ns);
  const int64_t paced_end_t = warm_end + int64_t(kPacedShare * seconds_ns);
  const int64_t sat_ns = int64_t(kSaturatedShare * seconds_ns);
  std::vector<ChurnLog> churn_logs;
  // A churned windowed query's windows are checked as soon as it is
  // detached and then dropped, so that they do not pile up over the run.
  Verdict churn_verdict;
  std::vector<double> submit_ms;
  std::string churn_error;
  // The churn thread runs cycles until the producer asks it to stop; the
  // producer keeps batches flowing until the cycle in flight has finished,
  // since detaching the churned client needs the consumer to be awake.
  std::mutex churn_stop_mu;
  std::condition_variable churn_stop_cv;
  bool churn_stop = false;  // guarded by churn_stop_mu
  std::atomic<bool> churn_done{false};
  int64_t churn_cpu_ns = 0;  // the churn thread's CPU, stored as it ends
  auto churn_sleep_until = [&](int64_t t) {
    std::unique_lock<std::mutex> lock(churn_stop_mu);
    for (;;) {
      if (churn_stop) return false;
      int64_t now = NowNs();
      if (now >= t) return true;
      churn_stop_cv.wait_for(lock, std::chrono::nanoseconds(t - now));
    }
  };
  std::thread churn_thread([&] {
    for (int cycle = 0;; ++cycle) {
      int64_t t = churn_start + int64_t(cycle) * kChurnPeriodNs;
      if (!churn_sleep_until(t)) break;
      ChurnLog log;
      log.cycle = cycle;
      std::string sql =
          w->ChurnSql(cycle, shared.started_end.load(), &log.t0);
      int64_t t0 = NowNs();
      auto h = server->Submit(sql);
      submit_ms.push_back(double(NowNs() - t0) / 1e6);
      ++churn_attempted;
      if (!h.ok()) {
        ++churn_failed;
        if (churn_error.empty()) churn_error = h.status().ToString();
        continue;
      }
      log.lo = shared.started_end.load();
      consumer.Attach(*h, &log);
      SleepUntilNs(t + kChurnLiveNs);
      log.acked[0] = consumer.churn_acked(0);
      log.acked[1] = consumer.churn_acked(1);
      Status cst = server->Cancel(h->id);
      log.hi = shared.started_end.load();
      ++churn_attempted;
      consumer.Detach();
      if (!cst.ok()) {
        ++churn_failed;
        if (churn_error.empty()) churn_error = cst.ToString();
      }
      // Results the query delivered before Cancel returned but which the
      // consumer had not polled yet were drained by Detach.
      if (w->windowed()) {
        w->VerifyChurnWindows(log, shared.started_end.load(), &churn_verdict);
        log.windows = {};
      }
      churn_logs.push_back(std::move(log));
    }
    churn_cpu_ns = ThreadCpuNs(pthread_self());
    churn_done.store(true);
  });
  pthread_t churn_handle = churn_thread.native_handle();
  pthread_t consumer_handle = consumer_thread.native_handle();
  pthread_t producer_handle = pthread_self();
  auto generator_cpu = [&] {
    return ThreadCpuNs(churn_handle) + ThreadCpuNs(consumer_handle) +
           ThreadCpuNs(producer_handle);
  };
  // Engine CPU per tuple is summarized like latency: per slice of each
  // phase, then the median over slices.
  struct CpuMark {
    int64_t t;
    int64_t engine_ns;  // process CPU minus the generator threads' CPU
    uint64_t seq;
    HostTicks host;
  };
  auto cpu_mark = [&] {
    return CpuMark{NowNs(), ProcessCpuNs() - generator_cpu(),
                   producer.next_seq(), ReadHostTicks()};
  };
  // Marks slice boundaries at fixed offsets from the phase's first mark.
  auto mark_slice = [&](std::vector<CpuMark>* marks) {
    if (NowNs() >= marks->front().t + int64_t(marks->size()) * kSliceNs) {
      marks->push_back(cpu_mark());
    }
  };
  // Slice i lies between marks i and i+1; true for the half of the whole
  // slices with the least host steal, and for every other whole slice that
  // stole no more than the last of that half (so every whole slice when the
  // host steals nothing). The phase's last, partial slice is left out when
  // it is shorter than half a slice.
  auto quiet_half = [](const std::vector<CpuMark>& marks) {
    std::vector<std::pair<double, size_t>> share;
    for (size_t i = 1; i < marks.size(); ++i) {
      if (marks[i].t - marks[i - 1].t < kSliceNs / 2) continue;
      uint64_t total = marks[i].host.total - marks[i - 1].host.total;
      uint64_t steal = marks[i].host.steal - marks[i - 1].host.steal;
      share.emplace_back(total == 0 ? 0.0 : double(steal) / double(total),
                         i - 1);
    }
    std::vector<bool> keep(marks.empty() ? 0 : marks.size() - 1, false);
    if (share.empty()) return keep;
    std::sort(share.begin(), share.end());
    const double cut = share[(share.size() - 1) / 2].first;
    for (const auto& [s, i] : share) {
      if (s <= cut) keep[i] = true;
    }
    return keep;
  };
  auto median_cpu_per_tuple = [&](const std::vector<CpuMark>& marks) {
    std::vector<bool> keep = quiet_half(marks);
    std::vector<double> v;
    for (size_t i = 1; i < marks.size(); ++i) {
      uint64_t n = marks[i].seq - marks[i - 1].seq;
      if (n == 0 || !keep[i - 1]) continue;
      v.push_back(double(marks[i].engine_ns - marks[i - 1].engine_ns) /
                  1000.0 / double(n));
    }
    return Quantile(&v, 0.5);
  };
  std::vector<CpuMark> paced_marks, sat_marks;

  // --- Paced phase: open loop at a fixed rate. ----------------------------
  const double rate = w->paced_rate();
  const int64_t interval = int64_t(double(paced_batch) / rate * 1e9);
  std::vector<double> lag_us;
  tcq::MetricsSnapshot snap_paced0, snap_sat0, snap_sat1;
  int64_t t_paced0 = 0;
  int threads_paced = 0;
  uint64_t seq_paced0 = 0, seq_sat0 = 0;
  {
    int64_t t_first = churn_start;
    bool measuring = false;
    for (uint64_t i = 0;; ++i) {
      int64_t due = t_first + int64_t(i) * interval;
      // End on a 64-aligned sequence number so saturated batches stay
      // aligned to the workload's stream blocks.
      if (due >= paced_end_t && producer.next_seq() % 64 == 0) break;
      if (!measuring && due >= warm_end &&
          producer.next_seq() % 64 == 0) {
        measuring = true;
        shared.paced_t0 = due;
        shared.paced_interval = interval;
        shared.paced_batch = paced_batch;
        shared.paced_begin.store(producer.next_seq());
        seq_paced0 = producer.next_seq();
        snap_paced0 = server->Introspect().metrics;
        paced_marks.push_back(cpu_mark());
        t_paced0 = NowNs();
      }
      auto b = producer.Build(producer.next_seq(), paced_batch);
      int64_t now = NowNs();
      if (now < due) SleepUntilNs(due);
      if (wait_acks(kPacedMaxOutstanding / paced_batch) < 0) {
        stalled = true;
        break;
      }
      if (measuring) lag_us.push_back(double(NowNs() - due) / 1000.0);
      producer.Push(&b, measuring ? due : 0);
      if (measuring) mark_slice(&paced_marks);
    }
    shared.paced_end.store(producer.next_seq());
  }
  threads_paced = NumThreads() - 3;
  // Peak memory is read at the end of the paced phase, whose input volume
  // and rate are fixed, so that it varies neither with how many tuples the
  // saturated phase managed to push nor with the run-to-run memory noise
  // under saturation (reported apart, as mem.saturated_peak_rss_mb).
  const double peak_rss_mb = PeakRssMb();
  const int64_t t_paced1 = NowNs();
  paced_marks.push_back(cpu_mark());
  const uint64_t seq_paced1 = producer.next_seq();
  snap_sat0 = server->Introspect().metrics;

  // --- Saturated phase: closed loop with `depth` batches outstanding. -----
  seq_sat0 = producer.next_seq();
  const int64_t t_sat0 = NowNs();
  const int64_t sat_deadline = t_sat0 + sat_ns;
  int64_t ack_wait_ns = 0;
  producer.ResetBuildStats();
  producer.set_time_pushes(args.trace);
  std::vector<std::pair<int64_t, bool>> slices;  // (start, traced)
  if (args.trace) slices.emplace_back(t_sat0, true);
  const uint64_t sat_cap = w->saturated_cap();
  sat_marks.push_back(cpu_mark());
  while (!stalled) {
    int64_t now = NowNs();
    if (now >= sat_deadline || producer.next_seq() - seq_sat0 >= sat_cap) break;
    if (args.trace && now - slices.back().first >= kTraceSliceNs) {
      bool on = !slices.back().second;
      server->tracer()->set_enabled(on);
      slices.emplace_back(now, on);
    }
    auto b = producer.Build(producer.next_seq(), sat_batch);
    int64_t waited = wait_acks(depth - 1);
    if (waited < 0) {
      stalled = true;
      break;
    }
    ack_wait_ns += waited;
    producer.Push(&b, 0);
    mark_slice(&sat_marks);
  }
  sat_marks.push_back(cpu_mark());
  producer.set_time_pushes(false);
  if (args.trace) server->tracer()->set_enabled(true);
  const uint64_t seq_sat_deadline = producer.next_seq();
  const int64_t t_sat_deadline = NowNs();
  {
    std::lock_guard<std::mutex> lock(churn_stop_mu);
    churn_stop = true;
  }
  churn_stop_cv.notify_all();
  // Tail: batches keep flowing (closed loop) until the churn cycle in
  // flight has finished. Then continuous clients acknowledge every pushed
  // batch; windowed clients acknowledge a batch only once a later window
  // fires, so for them tail batches continue until every batch pushed
  // before the churn finished is acknowledged.
  {
    bool churn_finished = false;
    uint64_t target = 0;
    uint64_t last_acked = shared.acked.load();
    int64_t last_progress = NowNs();
    while (!stalled) {
      if (!churn_finished && churn_done.load()) {
        churn_finished = true;
        target = producer.batches();
      }
      uint64_t acked_now = shared.acked.load();
      if (churn_finished && acked_now >= target) break;
      if (acked_now != last_acked) {
        last_acked = acked_now;
        last_progress = NowNs();
      } else if (NowNs() - last_progress > kStallNs) {
        stalled = true;
        break;
      }
      if (producer.batches() - acked_now < depth &&
          (!churn_finished || w->windowed())) {
        auto b = producer.Build(producer.next_seq(), sat_batch);
        producer.Push(&b, 0);
        continue;
      }
      std::unique_lock<std::mutex> lock(shared.ack_mu);
      shared.ack_cv.wait_for(lock, std::chrono::milliseconds(5));
    }
  }
  // Windowed clients: every window whose right edge the last pushed batch's
  // watermark passed fires eventually, and no other.
  const int64_t last_watermark =
      producer.batches() > 0 ? shared.log.at(producer.batches() - 1).watermark
                             : 0;
  if (w->windowed()) {
    std::vector<uint64_t> final_windows;
    for (size_t q = 0; q < standing.size(); ++q) {
      Workload::Loop loop = w->LoopOf(int(q), 0);
      final_windows.push_back(
          last_watermark > loop.t0
              ? uint64_t((last_watermark - 1 - loop.t0) / loop.step + 1)
              : 0);
    }
    consumer.ExpectFinalWindows(std::move(final_windows));
  }
  const int64_t t_sat1 = NowNs();
  const uint64_t seq_sat1 = producer.next_seq();
  const double saturated_peak_rss_mb = PeakRssMb();
  snap_sat1 = server->Introspect().metrics;
  churn_thread.join();
  const int64_t gen_cpu_total = churn_cpu_ns + ThreadCpuNs(consumer_handle) +
                                ThreadCpuNs(producer_handle);

  // --- Stop the consumer after a final drain; collect. --------------------
  shared.stop.store(true, std::memory_order_release);
  // Wakes a consumer blocked on the first client's egress. Every batch is
  // acknowledged by now, so nothing more is delivered to it.
  if (standing[0].results != nullptr) standing[0].results->Close();
  consumer_thread.join();
  TelegraphCQ::Introspection final_view = server->Introspect();
  server->Stop();

  // --- Operations and failures. --------------------------------------------
  const uint64_t pushed = producer.next_seq();
  uint64_t failed = producer.failed() + churn_failed;
  uint64_t engine_lost = 0;
  for (const auto& s : final_view.streams) {
    engine_lost += s.dropped + s.late_tuples;
  }
  for (const auto& q : final_view.queries) engine_lost += q.shed;
  engine_lost += CounterSum(final_view.metrics, "tcq_window_input_dropped");
  const uint64_t attempted = producer.attempted() + churn_attempted;
  failed = std::min(attempted, failed + engine_lost);
  if (stalled) verdict.Fail("the engine stopped acknowledging batches");
  if (!producer.first_error().empty()) {
    std::fprintf(stderr, "push error: %s\n", producer.first_error().c_str());
  }
  if (!churn_error.empty()) {
    std::fprintf(stderr, "churn error: %s\n", churn_error.c_str());
  }

  // --- Output checks against the independent reference. -------------------
  RunLog log;
  log.pushed = pushed;
  log.final_watermark = last_watermark;
  log.standing = consumer.digests();
  if (w->windowed()) log.windows = consumer.windows();
  log.churn = std::move(churn_logs);
  if (producer.failed() == 0 && engine_lost == 0) {
    w->Verify(log, &verdict);
    for (const std::string& e : churn_verdict.errors) verdict.Fail(e);
  } else {
    verdict.Fail("tuples were lost; outputs not comparable");
  }
  if (consumer.invalid() > 0) {
    verdict.Fail(std::to_string(consumer.invalid()) +
                 " results failed validation; first: " +
                 consumer.first_invalid());
  }
  // Conservation: two totals reached by independent paths.
  if (final_view.tuples_ingested != pushed - producer.failed()) {
    verdict.Fail("engine ingested " +
                 std::to_string(final_view.tuples_ingested) +
                 " tuples, the benchmark pushed " +
                 std::to_string(pushed - producer.failed()));
  }
  for (size_t i = 0; i < standing.size(); ++i) {
    uint64_t engine_side = standing[i].results != nullptr
                               ? standing[i].results->delivered()
                               : standing[i].windows->windows_fired();
    if (engine_side != consumer.polled()[i]) {
      verdict.Fail("client " + std::to_string(i) + ": engine delivered " +
                   std::to_string(engine_side) + ", consumer polled " +
                   std::to_string(consumer.polled()[i]));
    }
  }
  const bool correct = verdict.ok();
  for (const std::string& e : verdict.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }

  // --- Metrics. -------------------------------------------------------------
  const double paced_tuples = double(seq_paced1 - seq_paced0);
  const double sat_tuples = double(seq_sat1 - seq_sat0);
  // Saturated throughput: acknowledged tuples between the first and the
  // last acknowledgement inside the phase.
  auto acked_rate = [&](int64_t from, int64_t to) -> std::pair<double, double> {
    const auto& ev = consumer.ack_events();
    const std::pair<int64_t, uint64_t>* first = nullptr;
    const std::pair<int64_t, uint64_t>* last = nullptr;
    for (const auto& e : ev) {
      if (e.first < from || e.first > to) continue;
      if (first == nullptr) first = &e;
      last = &e;
    }
    if (first == nullptr || last == first) return {0.0, 0.0};
    return {double(last->second - first->second),
            double(last->first - first->first) / 1e9};
  };
  const std::vector<bool> quiet_paced = quiet_half(paced_marks);
  const std::vector<bool> quiet_sat = quiet_half(sat_marks);
  std::vector<double> slice_tps;
  for (size_t k = 0; k < quiet_sat.size(); ++k) {
    if (!quiet_sat[k]) continue;
    auto [n, secs] = acked_rate(sat_marks[k].t, sat_marks[k + 1].t);
    if (secs > 0) slice_tps.push_back(n / secs);
  }
  const double throughput = Quantile(&slice_tps, 0.5);
  // Latency: the median over the quiet paced slices of each slice's p50
  // and p99.
  std::vector<double> slice_p50, slice_p99;
  size_t lat_samples = 0;
  for (size_t k = 0; k < consumer.latency_us().size(); ++k) {
    const std::vector<float>& slice = consumer.latency_us()[k];
    if (slice.size() < 100 || k >= quiet_paced.size() || !quiet_paced[k]) {
      continue;
    }
    std::vector<double> v(slice.begin(), slice.end());
    lat_samples += v.size();
    slice_p50.push_back(Quantile(&v, 0.50));
    slice_p99.push_back(Quantile(&v, 0.99));
  }
  const double lat_p50 = Quantile(&slice_p50, 0.5);
  const double lat_p99 = Quantile(&slice_p99, 0.5);
  const double paced_cpu = median_cpu_per_tuple(paced_marks);
  const double sat_cpu = median_cpu_per_tuple(sat_marks);
  std::vector<double> submits = submit_ms;
  const double submit_p50 = Quantile(&submits, 0.5);

  std::fprintf(stderr,
               "workload %s seed %llu: %llu tuples pushed (%llu paced, %llu "
               "saturated, %llu after the deadline), %zu churn cycles, %zu "
               "latency samples\n",
               w->name(), (unsigned long long)args.seed,
               (unsigned long long)pushed, (unsigned long long)paced_tuples,
               (unsigned long long)(seq_sat_deadline - seq_sat0),
               (unsigned long long)(seq_sat1 - seq_sat_deadline),
               log.churn.size(), lat_samples);
  std::fprintf(stderr, "output checks: %s\n", correct ? "correct" : "INCORRECT");

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"throughput_tps", throughput, "tuples/s"},
        {"latency_p50_us", lat_p50, "us"},
        {"latency_p99_us", lat_p99, "us"},
        {"paced_cpu_us_per_tuple", paced_cpu, "us"},
        {"saturated_cpu_us_per_tuple", sat_cpu, "us"},
        {"submit_ms", submit_p50, "ms"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"setup_s", setup_s, "s"},
    };
  } else {
    const auto& p0 = snap_paced0;
    const auto& s0 = snap_sat0;
    const auto& s1 = snap_sat1;
    auto dc = [&](const tcq::MetricsSnapshot& a, const tcq::MetricsSnapshot& b,
                  const std::string& prefix, const std::string& contains = "") {
      return double(CounterSum(b, prefix, contains) -
                    CounterSum(a, prefix, contains));
    };
    auto dh = [&](const tcq::MetricsSnapshot& a, const tcq::MetricsSnapshot& b,
                  const std::string& prefix, const std::string& contains = "") {
      return HistSum::Of(b, prefix, contains)
          .Minus(HistSum::Of(a, prefix, contains));
    };
    std::vector<double> push_us = producer.push_us();
    const double push_p50 = Quantile(&push_us, 0.5);
    const double push_p99 = Quantile(&push_us, 0.99);
    const double paced_secs = double(t_paced1 - t_paced0) / 1e9;
    const double sat_secs_all = double(t_sat1 - t_sat0) / 1e9;
    // Shard skew: busiest over least busy shard replica in the phase.
    double skew = 0;
    {
      auto before = CounterInstances(s0, "tcq_shard_ingest_total");
      auto after = CounterInstances(s1, "tcq_shard_ingest_total");
      std::map<std::string, uint64_t> base(before.begin(), before.end());
      double mx = 0, mn = 0;
      bool first = true;
      for (const auto& [name, v] : after) {
        double d = double(v - base[name]);
        if (d <= 0) continue;
        mx = first ? d : std::max(mx, d);
        mn = first ? d : std::min(mn, d);
        first = false;
      }
      skew = Ratio(mx, mn);
    }
    // Tracing overhead: acknowledged throughput in traced over untraced
    // slices of the saturated phase.
    double traced_t = 0, traced_s = 0, plain_t = 0, plain_s = 0;
    for (size_t i = 0; i < slices.size(); ++i) {
      int64_t from = slices[i].first;
      int64_t to = i + 1 < slices.size() ? slices[i + 1].first : t_sat_deadline;
      auto [n, secs] = acked_rate(from, to);
      (slices[i].second ? traced_t : plain_t) += n;
      (slices[i].second ? traced_s : plain_s) += secs;
    }
    const double e2e_p50 = dh(p0, s0, "tcq_trace_e2e_us").Quantile(0.5);
    // Fresh routing decisions and cached ones reused are disjoint counts;
    // together they are every routing choice the shared eddies made.
    const double decisions = dc(s0, s1, "tcq_shared_eddy_routing_decisions_total");
    const double reused =
        dc(s0, s1, "tcq_shared_eddy_routing_decisions_reused_total");
    const HistSum hops = dh(s0, s1, "tcq_trace_eddy_hops");
    const HistSum gf = dh(s0, s1, "tcq_trace_module_us", "gf(");
    const double data_polled = double(consumer.data_results());
    metrics = {
        {"server.push_us_p50", push_p50, "us"},
        {"server.push_us_p99", push_p99, "us"},
        {"server.build_us_per_batch",
         Ratio(double(producer.build_ns()) / 1000.0, double(producer.built())),
         "us"},
        {"server.threads", double(threads_paced), "count"},
        {"fjords.queue_wait_us_p50",
         dh(p0, s0, "tcq_queue_wait_us").Quantile(0.5), "us"},
        {"fjords.enqueue_blocked_per_mtuple",
         Ratio(dc(s0, s1, "tcq_queue_enqueue_blocked_total") * 1e6, sat_tuples),
         "count"},
        {"exec.idle_backoffs_per_s",
         Ratio(dc(p0, s0, "tcq_eo_idle_backoffs_total"), paced_secs), "1/s"},
        {"exec.tuples_per_quantum",
         Ratio(sat_tuples, dc(s0, s1, "tcq_du_progress_total")), "count"},
        {"exec.productive_quantum_share",
         Ratio(dc(s0, s1, "tcq_du_progress_total"),
               dc(s0, s1, "tcq_du_quanta_total")),
         "ratio"},
        {"exec.shard_skew", skew, "ratio"},
        {"cacq.routing_choices", decisions + reused, "count"},
        {"cacq.routing_decisions_per_tuple", Ratio(decisions, sat_tuples),
         "count"},
        {"cacq.decision_reuse_ratio", Ratio(reused, decisions + reused),
         "ratio"},
        {"cacq.module_invocations_per_tuple",
         Ratio(dc(s0, s1, "tcq_shared_eddy_module_invocations_total"),
               sat_tuples),
         "count"},
        {"eddy.hops_per_tuple", hops.Mean(), "count"},
        {"eddy.hop_us_p50",
         dh(s0, s1, "tcq_trace_span_us", "\"hop\"").Quantile(0.5), "us"},
        {"operators.grouped_filter_us_per_batch", gf.Mean(), "us"},
        {"stem.build_us_p50",
         dh(s0, s1, "tcq_trace_span_us", "stem_build").Quantile(0.5), "us"},
        {"stem.probe_us_p50",
         dh(s0, s1, "tcq_trace_span_us", "stem_probe").Quantile(0.5), "us"},
        {"stem.matches_per_probe",
         Ratio(dc(s0, s1, "tcq_stem_matches_total"),
               dc(s0, s1, "tcq_stem_probes_total")),
         "ratio"},
        {"stem.live_entries", double(GaugeSum(s1, "tcq_stem_live_entries")),
         "count"},
        {"window.input_copies_per_tuple",
         Ratio(dc(s0, s1, "tcq_queue_enqueued_total", "win:"), sat_tuples),
         "count"},
        {"window.fired_per_s",
         Ratio(dc(s0, s1, "tcq_window_fired_total"), sat_secs_all), "1/s"},
        {"egress.emit_us_p50",
         dh(p0, s0, "tcq_trace_span_us", "egress_emit").Quantile(0.5), "us"},
        {"egress.poll_ns_per_result",
         Ratio(double(consumer.poll_ns()), double(consumer.timed_results())),
         "ns"},
        {"egress.punctuations_per_result",
         Ratio(double(consumer.punctuations()), data_polled), "ratio"},
        {"trace.e2e_us_p50", e2e_p50, "us"},
        {"trace.uncovered_share", lat_p50 > 0 ? 1.0 - e2e_p50 / lat_p50 : 0.0,
         "ratio"},
        {"trace.throughput_ratio",
         Ratio(Ratio(traced_t, traced_s), Ratio(plain_t, plain_s)), "ratio"},
        {"gen.lag_us_p99", Quantile(&lag_us, 0.99), "us"},
        {"gen.ack_wait_share",
         Ratio(double(ack_wait_ns) / 1e9,
               double(t_sat_deadline - t_sat0) / 1e9),
         "ratio"},
        {"gen.cpu_s", double(gen_cpu_total) / 1e9, "s"},
        {"mem.saturated_peak_rss_mb", saturated_peak_rss_mb, "MB"},
    };
  }
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-40s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::fprintf(stderr, "operations: %llu attempted, %llu failed\n",
               (unsigned long long)attempted, (unsigned long long)failed);
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

// --- Checker self-test ------------------------------------------------------

// Feeds every workload's checks a correct result log and corrupted copies of
// it; the correct one must pass and every corrupted one must fail.
int SelfTest() {
  int bad = 0;
  auto expect = [&](const std::string& label, const Workload& w,
                    const RunLog& log, bool want_ok) {
    Verdict v;
    w.Verify(log, &v);
    bool pass = v.ok() == want_ok;
    std::printf("%-14s %-30s %-9s (%s)%s%s\n", w.name(), label.c_str(),
                v.ok() ? "correct" : "incorrect",
                pass ? "as expected" : "WRONG", v.ok() ? "" : ": ",
                v.ok() ? "" : v.errors.front().c_str());
    if (!pass) ++bad;
  };
  const uint64_t pushed = 40000;
  for (const std::string& name : WorkloadNames()) {
    std::unique_ptr<Workload> w = MakeWorkload(name, 7);
    std::vector<ChurnLog> churn(2);
    for (int c = 0; c < 2; ++c) {
      churn[c].cycle = c;
      churn[c].lo = 8192 + 64 * 8 * uint64_t(c);
      churn[c].hi = churn[c].lo + 12288;
      churn[c].acked[0] = churn[c].acked[1] = int64_t(churn[c].lo + 8192);
      w->ChurnSql(c, churn[c].lo, &churn[c].t0);
    }
    const RunLog clean = w->Expected(pushed, churn);
    expect("clean", *w, clean, true);

    if (!w->windowed()) {
      RunLog removed = clean;
      removed.standing[0].Remove(w->HashOf(clean.churn[0].ids.front()));
      expect("standing result removed", *w, removed, false);
      RunLog dup = clean;
      dup.standing[0].Add(w->HashOf(clean.churn[0].ids.front()));
      expect("standing result duplicated", *w, dup, false);
      RunLog churn_removed = clean;
      churn_removed.churn[0].ids.erase(churn_removed.churn[0].ids.begin());
      expect("churn result removed", *w, churn_removed, false);
      RunLog churn_dup = clean;
      churn_dup.churn[0].ids.push_back(clean.churn[0].ids.back());
      expect("churn result duplicated", *w, churn_dup, false);
      // A genuine match of the churned query among tuples never pushed.
      std::vector<ChurnLog> longer = churn;
      longer[0].hi = pushed + 16384;
      RunLog wide = w->Expected(pushed + 16384, longer);
      RunLog oob = clean;
      for (const ResultId& id : wide.churn[0].ids) {
        if (id.a >= pushed || id.b >= pushed) {
          oob.churn[0].ids.push_back(id);
          break;
        }
      }
      expect("churn result out of bounds", *w, oob, false);
      // A tuple pushed during the churned query's life that it does not
      // match (a standing query's match).
      RunLog wrong = clean;
      wrong.churn[0].ids.push_back(
          {clean.churn[0].ids.front().a + 1, clean.churn[0].ids.front().b});
      expect("churn result not a match", *w, wrong, false);
    } else {
      // Standing windows are checked as a fold: corrupt query 0's windows,
      // then fold them as the consumer would.
      const std::vector<WindowRec> fired =
          w->ReferenceWindows(0, pushed, clean.final_watermark);
      auto with_windows = [&](const std::vector<WindowRec>& recs) {
        RunLog log = clean;
        log.windows[0] = WindowFold{};
        for (const WindowRec& r : recs) log.windows[0].Add(r.t, r.digest);
        return log;
      };
      expect("clean, refolded", *w, with_windows(fired), true);
      std::vector<WindowRec> removed = fired;
      removed[3].digest.Remove(w->HashOf({0, 0}));
      expect("window tuple removed", *w, with_windows(removed), false);
      std::vector<WindowRec> dup = fired;
      const WindowRec& cw = clean.churn[0].windows.back();
      dup[3].digest.Add(w->HashOf({cw.seqs.front(), 0}));
      expect("window tuple duplicated", *w, with_windows(dup), false);
      std::vector<WindowRec> twice = fired;
      twice.insert(twice.begin() + 4, twice[3]);
      expect("window fired twice", *w, with_windows(twice), false);
      std::vector<WindowRec> swapped = fired;
      std::swap(swapped[3], swapped[4]);
      expect("windows out of order", *w, with_windows(swapped), false);
      RunLog churn_removed = clean;
      churn_removed.churn[0].windows.back().seqs.pop_back();
      expect("churn window tuple removed", *w, churn_removed, false);
      RunLog churn_twice = clean;
      churn_twice.churn[0].windows.push_back(churn_twice.churn[0].windows.back());
      expect("churn window fired twice", *w, churn_twice, false);
      RunLog oob = clean;
      oob.churn[0].windows.back().seqs.push_back(churn[0].hi + 1);
      expect("churn result out of bounds", *w, oob, false);
    }
  }
  std::printf("self-test: %s\n", bad == 0 ? "ok" : "FAILED");
  return bad == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--self-test") {
      args->self_test = true;
    } else if (a == "--workload") {
      const char* v = next();
      if (v == nullptr) return false;
      args->workload = v;
    } else if (a == "--seed") {
      const char* v = next();
      if (v == nullptr) return false;
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      const char* v = next();
      if (v == nullptr) return false;
      args->seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      const char* v = next();
      if (v == nullptr) return false;
      args->trace = std::strcmp(v, "0") != 0;
    } else {
      return false;
    }
  }
  return args->self_test || (!args->workload.empty() && args->seconds > 0);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const int64_t start = perfbench::NowNs();
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n       %s --self-test\n",
                 argv[0], argv[0]);
    return 2;
  }
  if (args.self_test) return perfbench::SelfTest();
  return perfbench::RunWorkload(args, start);
}
