#include "probe.hh"

#include "pmu/pmu.hh"

namespace perfbench {

using namespace anvil;

namespace {

void
add_cache(const cache::CacheStats &after, const cache::CacheStats &before,
          cache::CacheStats &total)
{
    total.accesses += after.accesses - before.accesses;
    total.hits += after.hits - before.hits;
    total.misses += after.misses - before.misses;
    total.fills += after.fills - before.fills;
    total.evictions += after.evictions - before.evictions;
    total.invalidations += after.invalidations - before.invalidations;
}

void
sum_cache(const cache::CacheStats &s, cache::CacheStats &total)
{
    add_cache(s, cache::CacheStats{}, total);
}

}  // namespace

LayerCounts
LayerCounts::read(scenario::Execution &e)
{
    LayerCounts c;
    const mem::MemorySystem &m = e.machine();
    for (std::size_t pid = 0; pid < m.process_count(); ++pid) {
        const mem::AddressSpace &space = m.process(static_cast<Pid>(pid));
        c.accesses += space.accesses();
        c.tlb_hits += space.tlb_hits();
        c.tlb_misses += space.tlb_misses();
    }
    const cache::CacheHierarchy &h = m.hierarchy();
    c.l1 = h.l1().stats();
    c.l2 = h.l2().stats();
    for (std::uint32_t s = 0; s < h.config().llc_slices; ++s)
        sum_cache(h.llc(s).stats(), c.llc);
    c.dram = m.dram().stats();
    c.flips = m.dram().flips().size();
    // The LLC-miss counter restarts whenever ANVIL arms its overflow, so
    // the cumulative figure is the per-pid attribution total.
    for (const std::uint64_t misses : e.pmu().llc_misses_by_pid())
        c.pmu_llc_misses += misses;
    c.pmu_loads = e.pmu().counter(pmu::Event::kLoadsRetired).value();
    c.pmu_stores = e.pmu().counter(pmu::Event::kStoresRetired).value();
    if (e.anvil() != nullptr)
        c.anvil = e.anvil()->stats();
    if (e.mitigation() != nullptr)
        c.mitigation = e.mitigation()->stats();
    return c;
}

void
LayerCounts::add_delta(const LayerCounts &b, LayerCounts &t) const
{
    t.accesses += accesses - b.accesses;
    t.tlb_hits += tlb_hits - b.tlb_hits;
    t.tlb_misses += tlb_misses - b.tlb_misses;
    add_cache(l1, b.l1, t.l1);
    add_cache(l2, b.l2, t.l2);
    add_cache(llc, b.llc, t.llc);
    t.dram.accesses += dram.accesses - b.dram.accesses;
    t.dram.row_hits += dram.row_hits - b.dram.row_hits;
    t.dram.selective_refreshes +=
        dram.selective_refreshes - b.dram.selective_refreshes;
    t.flips += flips - b.flips;
    t.pmu_llc_misses += pmu_llc_misses - b.pmu_llc_misses;
    t.pmu_loads += pmu_loads - b.pmu_loads;
    t.pmu_stores += pmu_stores - b.pmu_stores;
    t.anvil.stage1_windows += anvil.stage1_windows - b.anvil.stage1_windows;
    t.anvil.stage2_windows += anvil.stage2_windows - b.anvil.stage2_windows;
    t.anvil.detections += anvil.detections - b.anvil.detections;
    t.anvil.selective_refreshes +=
        anvil.selective_refreshes - b.anvil.selective_refreshes;
    t.mitigation.activations_observed +=
        mitigation.activations_observed - b.mitigation.activations_observed;
    t.mitigation.neighbor_refreshes +=
        mitigation.neighbor_refreshes - b.mitigation.neighbor_refreshes;
    t.mitigation.table_evictions +=
        mitigation.table_evictions - b.mitigation.table_evictions;
}

ReplayStats &
ReplayStats::operator+=(const ReplayStats &o)
{
    translate_calls += o.translate_calls;
    translate_match += o.translate_match;
    cache_calls += o.cache_calls;
    cache_match += o.cache_match;
    dram_calls += o.dram_calls;
    dram_match += o.dram_match;
    return *this;
}

std::size_t
SpanLog::open(std::string name, std::size_t parent, std::uint64_t id)
{
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::move(name), id, parent, t, t});
    return spans_.size() - 1;
}

void
SpanLog::close(std::size_t index)
{
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.at(index).end_ns = t;
}

std::int64_t
SpanLog::now_ns() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

std::vector<std::int64_t>
SpanLog::self_ns() const
{
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end_ns - spans_[i].start_ns;
    // Children of one parent run one after another (one job), so their
    // durations never overlap and subtract exactly.
    for (const Span &s : spans_) {
        if (s.parent != kNoParent)
            self[s.parent] -= s.end_ns - s.start_ns;
    }
    return self;
}

double
SpanLog::self_seconds(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::vector<std::int64_t> self = self_ns();
    std::int64_t total = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].name == name)
            total += self[i];
    }
    return static_cast<double>(total) * 1e-9;
}

void
SpanLog::write_jsonl(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::vector<std::int64_t> self = self_ns();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << "{\"name\":\"" << s.name << "\",\"id\":";
        if (s.id == kSweepId)
            os << "null";
        else
            os << s.id;
        os << ",\"index\":" << i << ",\"parent\":";
        if (s.parent == kNoParent)
            os << "null";
        else
            os << s.parent;
        os << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
           << ",\"self_ns\":" << self[i] << "}\n";
    }
}

void
record_accesses(scenario::Execution &e, std::vector<RecordedAccess> &out)
{
    std::vector<RecordedAccess> *sink = &out;
    e.machine().add_observer([sink](const mem::AccessInfo &info) {
        sink->push_back({info.va, info.pa, info.complete_time, info.latency,
                         info.pid, info.type, info.source, info.llc_miss});
    });
}

std::uint64_t
fold_access(std::uint64_t h, Addr pa, Tick latency, DataSource source)
{
    const std::uint64_t fields[3] = {pa, latency,
                                     static_cast<std::uint64_t>(source)};
    return fnv1a(fields, sizeof fields, h);
}

void
digest_accesses(scenario::Execution &e, std::uint64_t &digest)
{
    std::uint64_t *h = &digest;
    e.machine().add_observer([h](const mem::AccessInfo &info) {
        *h = fold_access(*h, info.pa, info.latency, info.source);
    });
}

ReplayStats
replay(scenario::Execution &e, const std::vector<RecordedAccess> &stream,
       SpanLog &spans, std::size_t parent, std::uint64_t id)
{
    ReplayStats r;
    const mem::SystemConfig &config = e.machine().config();

    std::size_t span = spans.open("replay.translate", parent, id);
    for (const RecordedAccess &a : stream) {
        const Addr pa = e.machine().process(a.pid).translate(a.va);
        r.translate_match += pa == a.pa ? 1 : 0;
    }
    spans.close(span);
    r.translate_calls = stream.size();

    cache::CacheHierarchy hierarchy(config.cache);
    span = spans.open("replay.cache", parent, id);
    for (const RecordedAccess &a : stream) {
        if (a.llc_miss)
            hierarchy.clflush(a.pa);
        const cache::CacheHierarchy::Result res =
            hierarchy.access(a.pa, a.type);
        r.cache_match +=
            res.source == a.source && res.llc_miss == a.llc_miss ? 1 : 0;
    }
    spans.close(span);
    r.cache_calls = stream.size();

    // With the LLC lookup overlapped, the recorded latency of a miss is
    // the DRAM latency itself; otherwise the on-chip part comes first.
    const Tick on_chip = config.overlap_llc_miss_lookup
                             ? 0
                             : config.core.cycles_to_ticks(
                                   config.cache.llc_latency);
    dram::DramSystem dram(config.dram);
    span = spans.open("replay.dram", parent, id);
    for (const RecordedAccess &a : stream) {
        if (!a.llc_miss)
            continue;
        const Tick latency = a.latency - on_chip;
        const dram::DramSystem::AccessResult res =
            dram.access(a.pa, a.complete_time - latency);
        r.dram_match += res.latency == latency ? 1 : 0;
        ++r.dram_calls;
    }
    spans.close(span);
    return r;
}

std::uint64_t
fnv1a(const void *data, std::size_t size, std::uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

}  // namespace perfbench
