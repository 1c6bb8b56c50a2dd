#include "runner/journal.hh"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iostream>
#include <optional>

namespace anvil::runner {
namespace {

constexpr char kMagic[8] = {'A', 'N', 'V', 'L', 'J', 'N', 'L', '1'};
// v2 added the plan hash + shard identity to the header and a type byte
// to every record payload (trial vs lease).
constexpr std::uint32_t kVersion = 2;

/** Payload discriminator (first byte of every record payload). */
enum RecordType : std::uint8_t { kTrialRecord = 0, kLeaseRecord = 1 };

/** FNV-1a 64-bit over raw bytes (record checksums). */
std::uint64_t
fnv1a_bytes(const char *data, std::size_t size)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Append-only byte buffer with fixed-width host-endian encoders. */
struct Encoder {
    std::string bytes;

    void
    put_u8(std::uint8_t v)
    {
        bytes.push_back(static_cast<char>(v));
    }
    void
    put_u32(std::uint32_t v)
    {
        bytes.append(reinterpret_cast<const char *>(&v), sizeof v);
    }
    void
    put_u64(std::uint64_t v)
    {
        bytes.append(reinterpret_cast<const char *>(&v), sizeof v);
    }
    void
    put_double(double v)
    {
        // Raw IEEE-754 bits: replayed values are bit-exact, which the
        // byte-identical-resume guarantee depends on.
        put_u64(std::bit_cast<std::uint64_t>(v));
    }
    void
    put_string(const std::string &s)
    {
        put_u32(static_cast<std::uint32_t>(s.size()));
        bytes.append(s);
    }
};

/** Bounds-checked reader over one record payload. */
class Decoder
{
  public:
    Decoder(const char *data, std::size_t size)
        : p_(data), end_(data + size)
    {
    }

    std::uint8_t
    get_u8()
    {
        need(1);
        return static_cast<std::uint8_t>(*p_++);
    }
    std::uint32_t
    get_u32()
    {
        need(sizeof(std::uint32_t));
        std::uint32_t v;
        std::memcpy(&v, p_, sizeof v);
        p_ += sizeof v;
        return v;
    }
    std::uint64_t
    get_u64()
    {
        need(sizeof(std::uint64_t));
        std::uint64_t v;
        std::memcpy(&v, p_, sizeof v);
        p_ += sizeof v;
        return v;
    }
    double
    get_double()
    {
        return std::bit_cast<double>(get_u64());
    }
    std::string
    get_string()
    {
        const std::uint32_t n = get_u32();
        need(n);
        std::string s(p_, n);
        p_ += n;
        return s;
    }
    bool exhausted() const { return p_ == end_; }

  private:
    void
    need(std::size_t n)
    {
        if (static_cast<std::size_t>(end_ - p_) < n)
            throw Error("journal record payload is short");
    }

    const char *p_;
    const char *end_;
};

std::string
encode_header(const JournalHeader &header)
{
    Encoder e;
    e.bytes.append(kMagic, sizeof kMagic);
    e.put_u32(kVersion);
    e.put_u64(header.master_seed);
    e.put_string(header.sweep);
    e.put_u64(header.plan_hash);
    e.put_u32(header.shard_index);
    e.put_u32(header.shard_count);
    return e.bytes;
}

/** Decodes the header; also returns its on-disk size via @p size. */
JournalHeader
decode_header(const std::string &data, const std::string &path,
              std::size_t &size)
{
    if (data.size() < sizeof kMagic ||
        std::memcmp(data.data(), kMagic, sizeof kMagic) != 0) {
        throw Error("journal is not an anvil sweep journal")
            .with("path", path);
    }
    Decoder d(data.data() + sizeof kMagic, data.size() - sizeof kMagic);
    JournalHeader header;
    std::uint32_t version = 0;
    try {
        version = d.get_u32();
        if (version == kVersion) {
            header.master_seed = d.get_u64();
            header.sweep = d.get_string();
            header.plan_hash = d.get_u64();
            header.shard_index = d.get_u32();
            header.shard_count = d.get_u32();
        }
    } catch (const Error &e) {
        throw Error("journal header is truncated")
            .with("path", path)
            .caused_by(e);
    }
    if (version != kVersion) {
        throw Error("journal format version is not supported by this "
                    "build; delete the journal and rerun")
            .with("path", path)
            .with("version", std::uint64_t{version})
            .with("supported", std::uint64_t{kVersion});
    }
    size = encode_header(header).size();
    return header;
}

/** Field-by-field header validation: name, seed, plan hash, shard. */
void
validate_header(const JournalHeader &got, const JournalHeader &expect,
                const std::string &path)
{
    if (got.sweep != expect.sweep ||
        got.master_seed != expect.master_seed) {
        throw Error("journal belongs to a different sweep configuration "
                    "(name or master seed mismatch); delete it or rerun "
                    "without --resume")
            .with("path", path)
            .with("journal_sweep", got.sweep)
            .with("sweep", expect.sweep)
            .with_hex("journal_master_seed", got.master_seed)
            .with_hex("master_seed", expect.master_seed);
    }
    if (got.plan_hash != expect.plan_hash) {
        throw Error("journal was written against a different sweep plan "
                    "(trial count or scenario set changed); delete it "
                    "or rerun with the original flags")
            .with("path", path)
            .with_hex("journal_plan", got.plan_hash)
            .with_hex("plan", expect.plan_hash);
    }
    if (got.shard_count != expect.shard_count ||
        got.shard_index != expect.shard_index) {
        throw Error("journal belongs to a different shard assignment")
            .with("path", path)
            .with_shard(got.shard_index, got.shard_count)
            .with("expected_shard", std::to_string(expect.shard_index) +
                                        "/" +
                                        std::to_string(expect.shard_count));
    }
}

std::string
encode_lease_payload(std::uint64_t seq)
{
    Encoder e;
    e.put_u8(kLeaseRecord);
    e.put_u64(static_cast<std::uint64_t>(::getpid()));
    e.put_u64(seq);
    e.put_u64(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count()));
    return e.bytes;
}

/** Decodes one payload; lease records yield nullopt (liveness only). */
std::optional<JournalRecord>
decode_payload(const char *data, std::size_t size)
{
    Decoder d(data, size);
    const std::uint8_t type = d.get_u8();
    if (type == kLeaseRecord) {
        d.get_u64();  // pid
        d.get_u64();  // seq
        d.get_u64();  // wall-clock ms
        if (!d.exhausted())
            throw Error("lease record payload has trailing bytes");
        return std::nullopt;
    }
    if (type != kTrialRecord)
        throw Error("unknown journal record type")
            .with("type", std::uint64_t{type});
    JournalRecord rec;
    rec.spec.global_index = d.get_u64();
    rec.spec.trial = d.get_u64();
    rec.spec.seed = d.get_u64();
    rec.spec.scenario = d.get_string();
    rec.outcome.status = static_cast<TrialStatus>(d.get_u8());
    rec.outcome.attempts = d.get_u32();
    rec.outcome.error = d.get_string();
    const std::uint32_t nvalues = d.get_u32();
    for (std::uint32_t i = 0; i < nvalues; ++i) {
        std::string name = d.get_string();
        const double v = d.get_double();
        rec.outcome.result.set_value(std::move(name), v);
    }
    const std::uint32_t ncounters = d.get_u32();
    for (std::uint32_t i = 0; i < ncounters; ++i) {
        std::string name = d.get_string();
        const std::uint64_t v = d.get_u64();
        rec.outcome.result.set_counter(std::move(name), v);
    }
    if (d.get_u8() != 0) {
        detector::AnvilStats s;
        s.stage1_windows = d.get_u64();
        s.stage1_triggers = d.get_u64();
        s.stage2_windows = d.get_u64();
        s.detections = d.get_u64();
        s.selective_refreshes = d.get_u64();
        s.false_positive_detections = d.get_u64();
        s.false_positive_refreshes = d.get_u64();
        s.overhead = d.get_u64();
        rec.outcome.result.set_anvil(s);
    }
    if (d.get_u8() != 0) {
        dram::DramSystem::Stats s;
        s.accesses = d.get_u64();
        s.row_hits = d.get_u64();
        s.row_misses = d.get_u64();
        s.selective_refreshes = d.get_u64();
        s.refresh_stall = d.get_u64();
        rec.outcome.result.set_dram(s);
    }
    if (!d.exhausted())
        throw Error("journal record payload has trailing bytes");
    return rec;
}

/**
 * The bytes of @p path, or nullopt when it does not exist.
 * @throw Error when it exists but cannot be opened or read — never
 *        mistaken for a missing journal, which a resume would recreate.
 */
std::optional<std::string>
read_file(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        if (errno == ENOENT)
            return std::nullopt;
        throw Error("cannot open journal")
            .with("path", path)
            .caused_by(std::strerror(errno));
    }
    std::string data;
    char chunk[1 << 16];
    for (;;) {
        const ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n == 0)
            break;
        if (n > 0) {
            data.append(chunk, static_cast<std::size_t>(n));
        } else if (errno != EINTR) {
            const int err = errno;
            ::close(fd);
            throw Error("cannot read journal")
                .with("path", path)
                .caused_by(std::strerror(err));
        }
    }
    ::close(fd);
    return data;
}

/** Frames @p payload (length prefix + checksum) and appends it. */
void
append_framed(int fd, std::mutex &mutex, const std::string &payload,
              const std::string &path)
{
    Encoder record;
    record.put_u32(static_cast<std::uint32_t>(payload.size()));
    record.put_u64(fnv1a_bytes(payload.data(), payload.size()));
    record.bytes.append(payload);

    std::lock_guard<std::mutex> lock(mutex);
    if (fd < 0)
        return;
    // One contiguous write then fsync: a crash leaves at most one torn
    // trailing record, which readers skip and an append-open cuts away.
    write_all(fd, record.bytes.data(), record.bytes.size(), path);
    ::fsync(fd);
}

}  // namespace

std::string
encode_journal_payload(const TrialSpec &spec, const TrialOutcome &outcome)
{
    Encoder e;
    e.put_u8(kTrialRecord);
    e.put_u64(spec.global_index);
    e.put_u64(spec.trial);
    e.put_u64(spec.seed);
    e.put_string(spec.scenario);
    e.put_u8(static_cast<std::uint8_t>(outcome.status));
    e.put_u32(outcome.attempts);
    e.put_string(outcome.error);
    const TrialResult &r = outcome.result;
    e.put_u32(static_cast<std::uint32_t>(r.values().size()));
    for (const auto &[name, v] : r.values()) {
        e.put_string(name);
        e.put_double(v);
    }
    e.put_u32(static_cast<std::uint32_t>(r.counters().size()));
    for (const auto &[name, v] : r.counters()) {
        e.put_string(name);
        e.put_u64(v);
    }
    e.put_u8(r.has_anvil() ? 1 : 0);
    if (r.has_anvil()) {
        const detector::AnvilStats &s = r.anvil();
        e.put_u64(s.stage1_windows);
        e.put_u64(s.stage1_triggers);
        e.put_u64(s.stage2_windows);
        e.put_u64(s.detections);
        e.put_u64(s.selective_refreshes);
        e.put_u64(s.false_positive_detections);
        e.put_u64(s.false_positive_refreshes);
        e.put_u64(s.overhead);
    }
    e.put_u8(r.has_dram() ? 1 : 0);
    if (r.has_dram()) {
        const dram::DramSystem::Stats &s = r.dram();
        e.put_u64(s.accesses);
        e.put_u64(s.row_hits);
        e.put_u64(s.row_misses);
        e.put_u64(s.selective_refreshes);
        e.put_u64(s.refresh_stall);
    }
    return e.bytes;
}

std::string
shard_journal_path(const std::string &json_out, std::uint32_t index)
{
    return json_out + ".shard-" + std::to_string(index) + ".journal";
}

void
fsync_parent_dir(const std::string &path)
{
    const auto slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) {
        std::cerr << "[runner] cannot open directory " << dir
                  << " for fsync: " << std::strerror(errno) << "\n";
        return;
    }
    if (::fsync(fd) != 0) {
        std::cerr << "[runner] cannot fsync directory " << dir << ": "
                  << std::strerror(errno) << "\n";
    }
    ::close(fd);
}

void
write_all(int fd, const char *data, std::size_t size,
          const std::string &path)
{
    while (size > 0) {
        const ssize_t n = ::write(fd, data, size);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw Error("write failed")
                .with("path", path)
                .caused_by(std::strerror(errno));
        }
        data += n;
        size -= static_cast<std::size_t>(n);
    }
}

JournalHeader
Campaign::header(std::uint32_t index, std::uint32_t count) const
{
    return JournalHeader{.sweep = sweep,
                         .master_seed = master_seed,
                         .plan_hash = plan_hash(plan),
                         .shard_index = index,
                         .shard_count = count};
}

JournalWriter::~JournalWriter()
{
    close();
}

void
JournalWriter::open(const std::string &path, const JournalHeader &header,
                    std::uint64_t resume_at)
{
    close();
    path_ = path;
    const std::string encoded = encode_header(header);
    if (resume_at != 0) {
        fd_ = ::open(path.c_str(), O_RDWR | O_APPEND | O_CLOEXEC);
        if (fd_ < 0) {
            throw Error("cannot open journal")
                .with("path", path)
                .caused_by(std::strerror(errno));
        }
        // read_journal() validated this journal; the cheap re-check of
        // the header bytes guards the handle we actually append through.
        std::string existing(encoded.size(), '\0');
        const ssize_t n = ::read(fd_, existing.data(), existing.size());
        const off_t size = ::lseek(fd_, 0, SEEK_END);
        if (n != static_cast<ssize_t>(encoded.size()) || existing != encoded ||
            size < static_cast<off_t>(resume_at)) {
            close();
            throw Error("journal header does not match this sweep")
                .with("path", path);
        }
        // New records must follow the intact ones, not a torn tail.
        if (size > static_cast<off_t>(resume_at)) {
            if (::ftruncate(fd_, static_cast<off_t>(resume_at)) != 0) {
                const int err = errno;
                close();
                throw Error("cannot truncate torn journal record")
                    .with("path", path)
                    .caused_by(std::strerror(err));
            }
            std::cerr << "[runner] journal " << path << ": torn record at byte "
                      << resume_at << " truncated\n";
        }
        return;
    }
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                 0644);
    if (fd_ < 0) {
        throw Error("cannot create journal")
            .with("path", path)
            .caused_by(std::strerror(errno));
    }
    write_all(fd_, encoded.data(), encoded.size(), path_);
    ::fsync(fd_);
    // A journal whose directory entry evaporates on power loss would
    // leave a committed-looking run with nothing to resume from.
    fsync_parent_dir(path_);
}

void
JournalWriter::append(const TrialSpec &spec, const TrialOutcome &outcome)
{
    append_framed(fd_, mutex_, encode_journal_payload(spec, outcome),
                  path_);
}

void
JournalWriter::append_lease(std::uint64_t seq)
{
    append_framed(fd_, mutex_, encode_lease_payload(seq), path_);
}

void
JournalWriter::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

std::vector<JournalRecord>
read_journal(const std::string &path, const Campaign &campaign,
             std::uint32_t shard_index, std::uint32_t shard_count,
             std::uint64_t *intact_bytes)
{
    if (intact_bytes != nullptr)
        *intact_bytes = 0;
    const std::optional<std::string> file = read_file(path);
    if (!file)
        return {};  // nothing journaled yet
    const std::string &data = *file;
    const JournalHeader expect = campaign.header(shard_index, shard_count);
    // A crash between JournalWriter::open()'s create and its header
    // write leaves a proper prefix of this campaign's header: nothing
    // was journaled, and a fresh open rewrites it.
    const std::string header = encode_header(expect);
    if (data.size() < header.size() && header.starts_with(data))
        return {};
    std::size_t offset = 0;
    validate_header(decode_header(data, path, offset), expect, path);

    // The intact prefix: decoding stops at the first torn, corrupt, or
    // undecodable record, which stays on disk for the appender to cut.
    constexpr std::size_t kPrefix =
        sizeof(std::uint32_t) + sizeof(std::uint64_t);
    std::vector<JournalRecord> records;
    while (data.size() - offset >= kPrefix) {
        std::uint32_t size = 0;
        std::uint64_t checksum = 0;
        std::memcpy(&size, data.data() + offset, sizeof size);
        std::memcpy(&checksum, data.data() + offset + sizeof size,
                    sizeof checksum);
        if (data.size() - offset - kPrefix < size)
            break;  // torn: the length promises more than was written
        const char *payload = data.data() + offset + kPrefix;
        if (fnv1a_bytes(payload, size) != checksum)
            break;  // corrupt: treated like a torn tail
        try {
            if (auto rec = decode_payload(payload, size))
                records.push_back(std::move(*rec));
        } catch (const Error &) {
            break;
        }
        offset += kPrefix + size;
    }
    if (offset < data.size()) {
        std::cerr << "[runner] journal " << path << ": torn record at byte "
                  << offset << " ignored (" << records.size()
                  << " intact record(s) before it)\n";
    }

    const std::vector<TrialSpec> &plan = campaign.plan;
    for (const JournalRecord &rec : records) {
        const std::uint64_t i = rec.spec.global_index;
        if (i >= plan.size() || plan[i].scenario != rec.spec.scenario ||
            plan[i].trial != rec.spec.trial ||
            plan[i].seed != rec.spec.seed) {
            throw Error("journal record does not match the sweep plan "
                        "(the sweep definition or flags changed); delete "
                        "the journal or rerun with the original flags")
                .with("path", path)
                .with("record_trial", i)
                .with("record_scenario", rec.spec.scenario);
        }
    }
    if (intact_bytes != nullptr)
        *intact_bytes = offset;
    return records;
}

}  // namespace anvil::runner
