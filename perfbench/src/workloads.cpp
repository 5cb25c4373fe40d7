#include "workloads.h"

#include <algorithm>
#include <cstdio>

#include "common.h"

namespace perfbench {

using tcq::Status;
using tcq::TelegraphCQ;
using tcq::Tuple;
using tcq::Value;
using tcq::ValueType;

namespace {

std::string Num(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", x);
  return buf;
}

// Reads field i as int64 / double; false when absent or of another type.
bool GetInt(const Tuple& t, size_t i, int64_t* out) {
  if (i >= t.num_fields() || t.at(i).type() != ValueType::kInt64) return false;
  *out = t.at(i).AsInt64();
  return true;
}
bool GetDouble(const Tuple& t, size_t i, double* out) {
  if (i >= t.num_fields() || t.at(i).type() != ValueType::kDouble) {
    return false;
  }
  *out = t.at(i).AsDouble();
  return true;
}

std::string Describe(const ResultId& id) {
  return "(" + std::to_string(id.a) + "," + std::to_string(id.b) + ")";
}

}  // namespace

bool Workload::ContinuousResult(int q, const Tuple& t, ResultId* id) const {
  (void)q;
  (void)t;
  (void)id;
  return false;
}

bool Workload::WindowResult(int q, int64_t t_end, const Tuple& t,
                            uint64_t* seq) const {
  (void)q;
  (void)t_end;
  (void)t;
  (void)seq;
  return false;
}

void WindowFold::Add(int64_t t, const Digest& d) {
  hash += Mix(Mix(fired) ^ Mix(static_cast<uint64_t>(t) ^ 0x2545F4914F6CDD1Dull) ^
              Mix(d.count ^ Mix(d.hash)));
  ++fired;
}

uint64_t Workload::HashOf(const ResultId& id) const {
  return Mix(id.a ^ 0x5BD1E9955BD1E995ull);
}

namespace {

// Checks a churned continuous query's results: no duplicates, nothing
// outside the upper bound, everything inside the lower bound.
//
// The upper bound is the matches pushed before the run ended, not before
// Cancel returned: Cancel of a continuous query only queues the removal on
// the class's dispatch units, so results for tuples pushed just after it
// returned still arrive now and then (see CHANGES.md).
template <typename InBounds>
void VerifyChurnIds(const std::string& who, std::vector<ResultId> ids,
                    const std::vector<ResultId>& required, InBounds in_bounds,
                    Verdict* v) {
  std::sort(ids.begin(), ids.end());
  for (size_t i = 1; i < ids.size(); ++i) {
    if (ids[i] == ids[i - 1]) {
      v->Fail(who + ": duplicate result " + Describe(ids[i]));
      break;
    }
  }
  for (const ResultId& id : ids) {
    if (!in_bounds(id)) {
      v->Fail(who + ": result " + Describe(id) +
              " is outside the query's matches among the pushed tuples");
      break;
    }
  }
  for (const ResultId& id : required) {
    if (!std::binary_search(ids.begin(), ids.end(), id)) {
      v->Fail(who + ": missing result " + Describe(id) +
              " pushed after Submit and acknowledged before Cancel");
      break;
    }
  }
}

// --- cacq_filters ------------------------------------------------------------

// One stream of ticks; 64 standing filters with overlapping price ranges
// plus a symbol equality, all folded into one shared CACQ class.
class CacqFilters : public Workload {
 public:
  static constexpr int kSymbols = 8;
  static constexpr int kStanding = 64;

  explicit CacqFilters(uint64_t seed) : seed_(seed) {
    streams_ = {"ticks"};
    for (int q = 0; q < kStanding; ++q) {
      int lo = (q * 37 + 11) % 70;
      int width = 10 + (q * 13) % 25;
      specs_.push_back({q % kSymbols, double(lo), double(lo + width)});
    }
  }

  const char* name() const override { return "cacq_filters"; }
  bool windowed() const override { return false; }
  double paced_rate() const override { return 50000; }

  int64_t TimestampOf(uint64_t seq) const override {
    return static_cast<int64_t>(seq);
  }
  int SymOf(uint64_t seq) const {
    return static_cast<int>(Hash3(seed_, seq, 1) % kSymbols);
  }
  double PriceOf(uint64_t seq) const {
    return Unit(Hash3(seed_, seq, 2)) * 100.0;
  }
  void Row(uint64_t seq, std::vector<Value>* out) const override {
    out->clear();
    out->push_back(Value::Int64(static_cast<int64_t>(seq)));
    out->push_back(Value::String(SymName(SymOf(seq))));
    out->push_back(Value::Double(PriceOf(seq)));
  }

  Status DefineStreams(TelegraphCQ* server) override {
    TelegraphCQ::StreamOptions so;
    so.punctuate = true;
    return server
        ->DefineStream("ticks",
                       {{"seq", ValueType::kInt64, 0},
                        {"sym", ValueType::kString, 0},
                        {"price", ValueType::kDouble, 0}},
                       so)
        .status();
  }
  size_t num_standing() const override { return kStanding; }
  std::string StandingSql(int q) const override { return Sql(Spec(q)); }
  std::string ChurnSql(int cycle, uint64_t, int64_t* t0) const override {
    *t0 = 0;
    return Sql(Spec(ChurnQuery(cycle)));
  }

  bool ContinuousResult(int q, const Tuple& t, ResultId* id) const override {
    int64_t seq = 0;
    double price = 0;
    if (!GetInt(t, 0, &seq) || seq < 0 || !GetDouble(t, 2, &price) ||
        t.num_fields() != 3 || t.at(1).type() != ValueType::kString) {
      return false;
    }
    id->a = static_cast<uint64_t>(seq);
    id->b = 0;
    return t.at(1).AsString() == SymName(SymOf(id->a)) &&
           price == PriceOf(id->a) && Match(Spec(q), id->a);
  }

  void Verify(const RunLog& log, Verdict* v) const override {
    std::vector<Digest> want = Reference(log.pushed);
    if (log.standing.size() != want.size()) {
      v->Fail("expected " + std::to_string(want.size()) +
              " standing queries, got " + std::to_string(log.standing.size()));
      return;
    }
    for (int q = 0; q < kStanding; ++q) {
      if (!(log.standing[q] == want[q])) {
        v->Fail("query " + std::to_string(q) + ": " +
                std::to_string(log.standing[q].count) + " results (hash " +
                std::to_string(log.standing[q].hash) + "), reference " +
                std::to_string(want[q].count) + " (hash " +
                std::to_string(want[q].hash) + ")");
      }
    }
    for (const ChurnLog& c : log.churn) {
      const Spec_& spec = Spec(ChurnQuery(c.cycle));
      std::vector<ResultId> required;
      uint64_t end = std::min<uint64_t>(c.hi, uint64_t(c.acked[0] + 1));
      for (uint64_t s = c.lo; s < end; ++s) {
        if (Match(spec, s)) required.push_back({s, 0});
      }
      VerifyChurnIds(
          "churn cycle " + std::to_string(c.cycle), c.ids, required,
          [&](const ResultId& id) {
            return id.a < log.pushed && Match(spec, id.a);
          },
          v);
    }
  }

  RunLog Expected(uint64_t pushed,
                  const std::vector<ChurnLog>& churn) const override {
    RunLog log;
    log.pushed = pushed;
    log.standing = Reference(pushed);
    log.churn = churn;
    for (ChurnLog& c : log.churn) {
      const Spec_& spec = Spec(ChurnQuery(c.cycle));
      for (uint64_t s = c.lo; s < c.hi; ++s) {
        if (Match(spec, s)) c.ids.push_back({s, 0});
      }
    }
    return log;
  }

 private:
  struct Spec_ {
    int sym;
    double lo, hi;
  };
  static std::string SymName(int sym) { return "S" + std::to_string(sym); }
  Spec_ Spec(int q) const {
    if (q < kStanding) return specs_[q];
    int c = q - kStanding;
    int lo = (c * 17) % 70;
    return {c % kSymbols, double(lo), double(lo + 20)};
  }
  static std::string Sql(const Spec_& s) {
    return "SELECT seq, sym, price FROM ticks WHERE sym = '" +
           SymName(s.sym) + "' AND price >= " + Num(s.lo) +
           " AND price < " + Num(s.hi);
  }
  bool Match(const Spec_& s, uint64_t seq) const {
    if (SymOf(seq) != s.sym) return false;
    double p = PriceOf(seq);
    return p >= s.lo && p < s.hi;
  }
  std::vector<Digest> Reference(uint64_t pushed) const {
    std::vector<Digest> out(kStanding);
    std::vector<std::vector<int>> by_sym(kSymbols);
    for (int q = 0; q < kStanding; ++q) by_sym[specs_[q].sym].push_back(q);
    for (uint64_t s = 0; s < pushed; ++s) {
      double p = PriceOf(s);
      uint64_t h = HashOf({s, 0});
      for (int q : by_sym[SymOf(s)]) {
        if (p >= specs_[q].lo && p < specs_[q].hi) out[q].Add(h);
      }
    }
    return out;
  }

  uint64_t seed_;
  std::vector<Spec_> specs_;
};

// --- join_sharded ------------------------------------------------------------

// Two streams joined on an equality key plus a residual comparison; the
// class is hash-sharded across the executor's EOs. Keys are drawn uniformly
// from a key space local to each epoch of 8192 sequence numbers, sized so
// that each input tuple produces about one key match over its lifetime
// whatever the run length.
class JoinSharded : public Workload {
 public:
  static constexpr uint64_t kEpoch = 8192;
  static constexpr uint64_t kKeysPerEpoch = 2048;

  explicit JoinSharded(uint64_t seed) : seed_(seed) {
    streams_ = {"bids", "asks"};
  }

  const char* name() const override { return "join_sharded"; }
  bool windowed() const override { return false; }
  double paced_rate() const override { return 50000; }
  // SteM state is never evicted, so the resident set grows with every
  // tuple; a fixed volume bounds it and keeps mem.saturated_peak_rss_mb a
  // measure of memory per tuple rather than of throughput.
  uint64_t saturated_cap() const override { return 2'000'000; }
  void ConfigureServer(TelegraphCQ::Options* opts) const override {
    opts->executor.num_eos = 2;
    opts->executor.shards = 2;
  }

  int StreamOf(uint64_t seq) const override {
    return static_cast<int>((seq / 64) % 2);
  }
  int64_t TimestampOf(uint64_t seq) const override {
    return static_cast<int64_t>(seq);
  }
  int64_t KeyOf(uint64_t seq) const {
    return static_cast<int64_t>((seq / kEpoch) * kKeysPerEpoch +
                                Hash3(seed_, seq, 3) % kKeysPerEpoch);
  }
  double ValOf(uint64_t seq) const { return Unit(Hash3(seed_, seq, 4)); }
  void Row(uint64_t seq, std::vector<Value>* out) const override {
    out->clear();
    out->push_back(Value::Int64(static_cast<int64_t>(seq)));
    out->push_back(Value::Int64(KeyOf(seq)));
    out->push_back(Value::Double(ValOf(seq)));
  }

  Status DefineStreams(TelegraphCQ* server) override {
    TelegraphCQ::StreamOptions so;
    so.punctuate = true;
    auto s = server->DefineStream("bids",
                                  {{"lseq", ValueType::kInt64, 0},
                                   {"k", ValueType::kInt64, 0},
                                   {"v", ValueType::kDouble, 0}},
                                  so);
    if (!s.ok()) return s.status();
    return server
        ->DefineStream("asks",
                       {{"rseq", ValueType::kInt64, 0},
                        {"k", ValueType::kInt64, 0},
                        {"w", ValueType::kDouble, 0}},
                       so)
        .status();
  }
  size_t num_standing() const override { return 1; }
  std::string StandingSql(int) const override {
    return "SELECT lseq, rseq FROM bids, asks WHERE bids.k = asks.k AND "
           "bids.v < asks.w";
  }
  std::string ChurnSql(int, uint64_t, int64_t* t0) const override {
    *t0 = 0;
    return "SELECT lseq, rseq FROM bids, asks WHERE bids.k = asks.k AND "
           "bids.v > asks.w";
  }

  uint64_t HashOf(const ResultId& id) const override {
    return (Mix(id.a) | 1) * (Mix(id.b ^ 0xC2B2AE3D27D4EB4Full) | 1);
  }

  bool ContinuousResult(int q, const Tuple& t, ResultId* id) const override {
    int64_t l = 0, r = 0;
    if (t.num_fields() != 2 || !GetInt(t, 0, &l) || !GetInt(t, 1, &r) ||
        l < 0 || r < 0) {
      return false;
    }
    *id = {static_cast<uint64_t>(l), static_cast<uint64_t>(r)};
    return Match(q, id->a, id->b);
  }

  void Verify(const RunLog& log, Verdict* v) const override {
    if (log.standing.size() != 1) {
      v->Fail("expected 1 standing query, got " +
              std::to_string(log.standing.size()));
      return;
    }
    Digest want = Reference(log.pushed);
    if (!(log.standing[0] == want)) {
      v->Fail("join: " + std::to_string(log.standing[0].count) +
              " pairs (hash " + std::to_string(log.standing[0].hash) +
              "), reference " + std::to_string(want.count) + " (hash " +
              std::to_string(want.hash) + ")");
    }
    for (const ChurnLog& c : log.churn) {
      int q = ChurnQuery(c.cycle);
      std::vector<ResultId> required;
      uint64_t end = std::min<uint64_t>(
          c.hi, uint64_t(std::max(c.acked[0], c.acked[1]) + 1));
      ForEachPair(c.lo, end, [&](uint64_t l, uint64_t r) {
        if (int64_t(l) <= c.acked[0] && int64_t(r) <= c.acked[1] &&
            Residual(q, l, r)) {
          required.push_back({l, r});
        }
      });
      VerifyChurnIds(
          "churn cycle " + std::to_string(c.cycle), c.ids, required,
          [&](const ResultId& id) {
            return id.a < log.pushed && id.b < log.pushed &&
                   Match(q, id.a, id.b);
          },
          v);
    }
  }

  RunLog Expected(uint64_t pushed,
                  const std::vector<ChurnLog>& churn) const override {
    RunLog log;
    log.pushed = pushed;
    log.standing = {Reference(pushed)};
    log.churn = churn;
    for (ChurnLog& c : log.churn) {
      int q = ChurnQuery(c.cycle);
      ForEachPair(c.lo, c.hi, [&](uint64_t l, uint64_t r) {
        if (Residual(q, l, r)) c.ids.push_back({l, r});
      });
    }
    return log;
  }

 private:
  bool Residual(int q, uint64_t l, uint64_t r) const {
    return q == 0 ? ValOf(l) < ValOf(r) : ValOf(l) > ValOf(r);
  }
  bool Match(int q, uint64_t l, uint64_t r) const {
    return StreamOf(l) == 0 && StreamOf(r) == 1 && KeyOf(l) == KeyOf(r) &&
           Residual(q, l, r);
  }
  // Calls f(l, r) for every key-matching (bids, asks) pair with both seqs in
  // [a, b), epoch by epoch (keys never match across epochs).
  template <typename F>
  void ForEachPair(uint64_t a, uint64_t b, F f) const {
    if (a >= b) return;
    std::vector<std::pair<int64_t, uint64_t>> side[2];
    for (uint64_t e = a / kEpoch; e <= (b - 1) / kEpoch; ++e) {
      side[0].clear();
      side[1].clear();
      uint64_t s0 = std::max(a, e * kEpoch);
      uint64_t s1 = std::min(b, (e + 1) * kEpoch);
      for (uint64_t s = s0; s < s1; ++s) {
        side[StreamOf(s)].emplace_back(KeyOf(s), s);
      }
      std::sort(side[0].begin(), side[0].end());
      std::sort(side[1].begin(), side[1].end());
      size_t j = 0;
      for (size_t i = 0; i < side[0].size();) {
        int64_t key = side[0][i].first;
        size_t i_end = i;
        while (i_end < side[0].size() && side[0][i_end].first == key) ++i_end;
        while (j < side[1].size() && side[1][j].first < key) ++j;
        for (size_t jj = j; jj < side[1].size() && side[1][jj].first == key;
             ++jj) {
          for (size_t ii = i; ii < i_end; ++ii) {
            f(side[0][ii].second, side[1][jj].second);
          }
        }
        i = i_end;
      }
    }
  }
  Digest Reference(uint64_t pushed) const {
    Digest d;
    ForEachPair(0, pushed, [&](uint64_t l, uint64_t r) {
      if (Residual(0, l, r)) d.Add(HashOf({l, r}));
    });
    return d;
  }

  uint64_t seed_;
};

// --- window_event -------------------------------------------------------------

// One punctuating stream with a declared disorder bound; sliding event-time
// windows with different filters, widths and slides.
class WindowEvent : public Workload {
 public:
  static constexpr int64_t kDisorder = 8;   // ticks
  static constexpr uint64_t kPerTick = 4;   // rows per tick
  static constexpr int64_t kBaseTick = 16;  // tick of seq 0

  explicit WindowEvent(uint64_t seed) : seed_(seed) {
    streams_ = {"sensors"};
    // filter kind, loop start, slide, width
    specs_ = {{0, 100, 10, 50}, {1, 100, 5, 30}, {2, 100, 25, 100}};
  }

  const char* name() const override { return "window_event"; }
  bool windowed() const override { return true; }
  double paced_rate() const override { return 25000; }

  int64_t BaseOf(uint64_t seq) const {
    return static_cast<int64_t>(seq / kPerTick) + kBaseTick;
  }
  // Each row lags the stream clock by a seeded amount in [0, kDisorder], so
  // rows arrive out of timestamp order but never beyond the declared bound.
  int64_t TimestampOf(uint64_t seq) const override {
    return BaseOf(seq) -
           static_cast<int64_t>(Hash3(seed_, seq, 5) % (kDisorder + 1));
  }
  int64_t SensorOf(uint64_t seq) const {
    return static_cast<int64_t>(Hash3(seed_, seq, 6) % 16);
  }
  double ValOf(uint64_t seq) const { return Unit(Hash3(seed_, seq, 7)); }
  void Row(uint64_t seq, std::vector<Value>* out) const override {
    out->clear();
    out->push_back(Value::Int64(static_cast<int64_t>(seq)));
    out->push_back(Value::Int64(SensorOf(seq)));
    out->push_back(Value::Double(ValOf(seq)));
  }
  int64_t WatermarkFor(int64_t max_ts) const override {
    return max_ts - kDisorder;
  }

  Status DefineStreams(TelegraphCQ* server) override {
    TelegraphCQ::StreamOptions so;
    so.punctuate = true;
    so.disorder_bound = kDisorder;
    return server
        ->DefineStream("sensors",
                       {{"seq", ValueType::kInt64, 0},
                        {"sensor", ValueType::kInt64, 0},
                        {"val", ValueType::kDouble, 0}},
                       so)
        .status();
  }
  size_t num_standing() const override { return specs_.size(); }
  std::string StandingSql(int q) const override { return Sql(specs_[q]); }
  std::string ChurnSql(int cycle, uint64_t next_seq,
                       int64_t* t0) const override {
    // Start well past the stream clock so the churned loop's windows lie
    // after Submit returns (the margin covers the Submit call itself).
    *t0 = BaseOf(next_seq) + 256;
    Spec_ s = ChurnSpec(cycle, *t0);
    return Sql(s);
  }
  Loop LoopOf(int q, int64_t churn_t0) const override {
    Spec_ s = q < int(specs_.size()) ? specs_[q]
                                     : ChurnSpec(q - int(specs_.size()),
                                                 churn_t0);
    return Loop{s.t0, s.step, s.width};
  }

  bool WindowResult(int q, int64_t t_end, const Tuple& t,
                    uint64_t* seq) const override {
    int64_t s = 0, sensor = 0;
    double val = 0;
    if (t.num_fields() != 3 || !GetInt(t, 0, &s) || s < 0 ||
        !GetInt(t, 1, &sensor) || !GetDouble(t, 2, &val)) {
      return false;
    }
    *seq = static_cast<uint64_t>(s);
    // Churned loops differ only in their first instant, which does not
    // change membership: any t0 will do here.
    Spec_ spec = q < int(specs_.size()) ? specs_[q]
                                        : ChurnSpec(q - int(specs_.size()), 0);
    return sensor == SensorOf(*seq) && val == ValOf(*seq) &&
           InWindow(spec, t_end, *seq);
  }

  void Verify(const RunLog& log, Verdict* v) const override {
    if (log.windows.size() != specs_.size()) {
      v->Fail("expected " + std::to_string(specs_.size()) +
              " windowed queries, got " + std::to_string(log.windows.size()));
      return;
    }
    for (size_t q = 0; q < specs_.size(); ++q) {
      const std::string who = "window query " + std::to_string(q);
      WindowFold want;
      for (const WindowRec& w :
           ReferenceWindows(int(q), log.pushed, log.final_watermark)) {
        want.Add(w.t, w.digest);
      }
      const WindowFold& got = log.windows[q];
      if (got.fired != want.fired) {
        v->Fail(who + ": " + std::to_string(got.fired) +
                " windows fired, the final watermark closed " +
                std::to_string(want.fired));
      } else if (got.hash != want.hash) {
        v->Fail(who + ": the fired windows differ from the reference in "
                "their instants, order or contents");
      }
    }
    for (const ChurnLog& c : log.churn) VerifyChurnWindows(c, log.pushed, v);
  }

  void VerifyChurnWindows(const ChurnLog& c, uint64_t pushed,
                          Verdict* v) const override {
    const std::string who = "churn cycle " + std::to_string(c.cycle);
    Spec_ spec = ChurnSpec(c.cycle, c.t0);
    if (!InOrder(who, c.windows, spec, v)) return;
    for (const WindowRec& w : c.windows) {
      std::vector<uint64_t> seqs = w.seqs;
      std::sort(seqs.begin(), seqs.end());
      if (std::adjacent_find(seqs.begin(), seqs.end()) != seqs.end()) {
        v->Fail(who + " window t=" + std::to_string(w.t) + ": duplicate tuple");
        return;
      }
      for (uint64_t s : seqs) {
        if (s >= c.hi || !InWindow(spec, w.t, s)) {
          v->Fail(who + " window t=" + std::to_string(w.t) + ": tuple " +
                  std::to_string(s) + " is outside the window's matches "
                  "pushed before Cancel returned");
          return;
        }
      }
      // A window whose whole span was pushed after Submit returned must be
      // exact.
      if (FirstSeqAt(w.t - spec.width + 1) >= c.lo) {
        Digest want = Reference(spec, w.t, pushed);
        if (seqs.size() != want.count) {
          v->Fail(who + " window t=" + std::to_string(w.t) + ": " +
                  std::to_string(seqs.size()) + " tuples, reference " +
                  std::to_string(want.count));
          return;
        }
      }
    }
  }

  RunLog Expected(uint64_t pushed,
                  const std::vector<ChurnLog>& churn) const override {
    RunLog log;
    log.pushed = pushed;
    int64_t max_ts = 0;
    for (uint64_t s = pushed > 64 ? pushed - 64 : 0; s < pushed; ++s) {
      max_ts = std::max(max_ts, TimestampOf(s));
    }
    log.final_watermark = WatermarkFor(max_ts);
    for (size_t q = 0; q < specs_.size(); ++q) {
      WindowFold fold;
      for (const WindowRec& w :
           ReferenceWindows(int(q), pushed, log.final_watermark)) {
        fold.Add(w.t, w.digest);
      }
      log.windows.push_back(fold);
    }
    log.churn = churn;
    for (ChurnLog& c : log.churn) {
      Spec_ spec = ChurnSpec(c.cycle, c.t0);
      // Fire every window complete before Cancel.
      for (int64_t t = spec.t0; FirstSeqAt(t + kDisorder + 1) < c.hi;
           t += spec.step) {
        WindowRec w{t, {}, {}};
        ForEachInWindow(spec, t, pushed, [&](uint64_t s) {
          w.seqs.push_back(s);
          w.digest.Add(HashOf({s, 0}));
        });
        c.windows.push_back(std::move(w));
      }
    }
    return log;
  }

  std::vector<WindowRec> ReferenceWindows(
      int q, uint64_t pushed, int64_t final_watermark) const override {
    const Spec_& spec = specs_[q];
    std::vector<WindowRec> fired;
    for (int64_t t = spec.t0; t < final_watermark; t += spec.step) {
      fired.push_back(WindowRec{t, Reference(spec, t, pushed), {}});
    }
    return fired;
  }

 private:
  struct Spec_ {
    int filter;  // 0: val > 0.5; 1: sensor < 4; 2: val < 0.25 AND sensor >= 8;
                 // 3: val > 0.25
    int64_t t0, step, width;
  };
  Spec_ ChurnSpec(int cycle, int64_t t0) const {
    (void)cycle;
    return Spec_{3, t0, 10, 20};
  }
  static std::string Sql(const Spec_& s) {
    static const char* kWhere[] = {"val > 0.5", "sensor < 4",
                                   "val < 0.25 AND sensor >= 8", "val > 0.25"};
    return "SELECT seq, sensor, val FROM sensors WHERE " +
           std::string(kWhere[s.filter]) + " for (t = " +
           std::to_string(s.t0) + "; true; t += " + std::to_string(s.step) +
           ") { WindowIs(sensors, t - " + std::to_string(s.width - 1) +
           ", t); }";
  }
  bool Filter(int filter, uint64_t seq) const {
    switch (filter) {
      case 0: return ValOf(seq) > 0.5;
      case 1: return SensorOf(seq) < 4;
      case 2: return ValOf(seq) < 0.25 && SensorOf(seq) >= 8;
      default: return ValOf(seq) > 0.25;
    }
  }
  bool InWindow(const Spec_& s, int64_t t_end, uint64_t seq) const {
    int64_t ts = TimestampOf(seq);
    return ts >= t_end - s.width + 1 && ts <= t_end && Filter(s.filter, seq);
  }
  // First seq whose stream-clock tick is >= tick (0 when tick precedes it).
  static uint64_t FirstSeqAt(int64_t tick) {
    return tick <= kBaseTick ? 0 : uint64_t(tick - kBaseTick) * kPerTick;
  }
  template <typename F>
  void ForEachInWindow(const Spec_& s, int64_t t_end, uint64_t pushed,
                       F f) const {
    // Rows with a timestamp in [l, r] have a stream-clock tick in
    // [l, r + kDisorder].
    uint64_t a = FirstSeqAt(t_end - s.width + 1);
    uint64_t b = std::min(pushed, FirstSeqAt(t_end + kDisorder + 1));
    for (uint64_t seq = a; seq < b; ++seq) {
      if (InWindow(s, t_end, seq)) f(seq);
    }
  }
  Digest Reference(const Spec_& s, int64_t t_end, uint64_t pushed) const {
    Digest d;
    ForEachInWindow(s, t_end, pushed,
                    [&](uint64_t seq) { d.Add(HashOf({seq, 0})); });
    return d;
  }
  // Fired windows must be the loop's instants, each once, in order.
  static bool InOrder(const std::string& who,
                      const std::vector<WindowRec>& fired, const Spec_& s,
                      Verdict* v) {
    for (size_t i = 0; i < fired.size(); ++i) {
      int64_t want = s.t0 + int64_t(i) * s.step;
      if (fired[i].t != want) {
        v->Fail(who + ": window #" + std::to_string(i) + " fired at t=" +
                std::to_string(fired[i].t) + ", expected t=" +
                std::to_string(want) + " (each window once, in order)");
        return false;
      }
    }
    return true;
  }

  uint64_t seed_;
  std::vector<Spec_> specs_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "cacq_filters") return std::make_unique<CacqFilters>(seed);
  if (name == "join_sharded") return std::make_unique<JoinSharded>(seed);
  if (name == "window_event") return std::make_unique<WindowEvent>(seed);
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  return {"cacq_filters", "join_sharded", "window_event"};
}

}  // namespace perfbench
