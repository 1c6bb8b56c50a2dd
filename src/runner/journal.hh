/**
 * @file
 * Crash-safe checkpoint journal for sweep execution.
 *
 * While a sweep with a file JSON destination runs, every completed
 * trial's outcome is appended to its journal as a length-prefixed,
 * checksummed, fsync'd binary record. If the process dies mid-sweep —
 * Ctrl-C, SIGKILL, OOM — `--resume` replays the journal, skips the
 * trials it holds, runs only the remainder, and produces final JSON
 * byte-identical to an uninterrupted run (the sink aggregates in plan
 * order, and doubles are journaled as raw IEEE-754 bits, so replayed
 * results are bit-exact).
 *
 * Every journal is a shard journal, `<json-out>.shard-K.journal`: an
 * in-process run is shard 0 of a one-shard campaign, and
 * `anvil-sim shard`/`supervise` children are shards K of N. The header
 * carries the shard's identity (index, count) and a hash of the full
 * trial plan, so a resume or merge can refuse journals from a different
 * sweep definition or shard assignment. Shard children also interleave
 * *lease records* — periodic heartbeats — so a supervisor can tell a
 * shard that is slowly working from one that is wedged; an in-process
 * run writes none.
 *
 * One reader, read_journal(), serves `run --resume`, the supervisor and
 * the merge, and decodes each journal once. Recovery rules:
 *   - a torn trailing record (partial write at the kill point) ends the
 *     intact prefix, never fatal. Reading never writes: only the
 *     appender (a JournalWriter resumed at read_journal()'s intact
 *     length) cuts the torn tail away, so `merge --check` and the
 *     supervisor are read-only;
 *   - a file that is a proper prefix of the campaign's header (empty
 *     included: a crash between create and header write) holds no
 *     records and resumes at length 0, which rewrites it;
 *   - a journal that exists but cannot be read is an error, never
 *     taken for a missing one;
 *   - a header that does not match the campaign (different name, master
 *     seed, plan hash, or shard identity) refuses with a structured
 *     error;
 *   - a record that contradicts the plan (identity or seed mismatch at
 *     its global index — the sweep definition changed) likewise refuses.
 *
 * The format is host-endian and process-local (a checkpoint, not an
 * interchange format); the version byte guards against record-layout
 * drift across builds.
 */
#ifndef ANVIL_RUNNER_JOURNAL_HH
#define ANVIL_RUNNER_JOURNAL_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "runner/trial.hh"

namespace anvil::runner {

/**
 * Identity block at the front of every journal. Two journals with equal
 * headers were produced by the same sweep definition: same name, same
 * master seed, and the same full trial plan, so their records are
 * interchangeable facts about the same deterministic computation.
 */
struct JournalHeader {
    std::string sweep;
    std::uint64_t master_seed = 0;
    /// plan_hash() over the *full* sweep plan.
    std::uint64_t plan_hash = 0;
    std::uint32_t shard_index = 0;
    /// Number of shards in the campaign (1 for an in-process run).
    std::uint32_t shard_count = 1;
};

/**
 * The campaign a journal belongs to: the sweep's identity and its full
 * trial plan (Sweep::campaign()). Every journal header is built here.
 */
struct Campaign {
    std::string sweep;
    std::uint64_t master_seed = 0;
    /// Every trial of the sweep, indexed by global index.
    std::vector<TrialSpec> plan;

    /** The header of shard @p index of a @p count-shard campaign. */
    JournalHeader header(std::uint32_t index, std::uint32_t count) const;
};

/** One replayed journal entry: the trial's identity and its outcome. */
struct JournalRecord {
    TrialSpec spec;
    TrialOutcome outcome;
};

/**
 * Append-side of the journal. Thread-safe: workers append records as
 * trials complete, in completion order — records carry their global
 * index, so ordering never matters for replay.
 */
class JournalWriter
{
  public:
    JournalWriter() = default;
    ~JournalWriter();

    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    /**
     * Opens @p path for journaling the sweep identified by @p header.
     * With @p resume_at 0 the journal starts fresh: truncate, write a new
     * header, and fsync the parent directory (a journal that vanishes on
     * power loss is no journal). Otherwise @p resume_at is the intact
     * length read_journal() reported for the existing journal: its
     * header is re-checked, a torn tail past that length is cut — the
     * only place a journal is ever shortened — and new records follow
     * the intact ones.
     * @throw Error on I/O failure, or a resumed journal whose header
     *        does not match or that is shorter than @p resume_at.
     */
    void open(const std::string &path, const JournalHeader &header,
              std::uint64_t resume_at = 0);

    bool is_open() const { return fd_ >= 0; }

    /** Appends one record and fsyncs it to disk. @throw Error on I/O. */
    void append(const TrialSpec &spec, const TrialOutcome &outcome);

    /**
     * Appends a lease (heartbeat) record: sequence number plus the
     * writing process id. Lease records are liveness evidence for a
     * supervisor — read_journal() skips them during replay.
     * @throw Error on I/O.
     */
    void append_lease(std::uint64_t seq);

    void close();

  private:
    std::mutex mutex_;
    int fd_ = -1;
    std::string path_;
};

/**
 * Reads every intact trial record (lease records are skipped) of the
 * journal at @p path, which must be shard @p shard_index of
 * @p shard_count of @p campaign. A torn tail ends the records and is
 * left on disk; a missing file, or one holding only a proper prefix of
 * the expected header, has none. @p intact_bytes, when given, receives
 * the length of the header plus the intact records (0 when there is no
 * complete header): the JournalWriter::open() argument that resumes the
 * journal.
 * @throw Error when the file exists but cannot be read, or when the
 *        header or a record does not match @p campaign.
 */
std::vector<JournalRecord> read_journal(const std::string &path,
                                        const Campaign &campaign,
                                        std::uint32_t shard_index,
                                        std::uint32_t shard_count,
                                        std::uint64_t *intact_bytes = nullptr);

/**
 * Canonical encoding of one trial record's payload. Two records encode
 * identically iff they describe the same outcome bit-for-bit — the
 * merge uses this to accept duplicate trials claimed by two shards
 * (requeue races) while refusing divergent ones.
 */
std::string encode_journal_payload(const TrialSpec &spec,
                                   const TrialOutcome &outcome);

/** Shard @p index's journal: `<json_out>.shard-K.journal`. */
std::string shard_journal_path(const std::string &json_out,
                               std::uint32_t index);

/**
 * fsyncs the directory containing @p path, making a just-created or
 * just-renamed entry durable. Best-effort: failures are reported on
 * stderr, not thrown (an unsyncable directory should not kill a sweep
 * whose data writes all succeeded).
 */
void fsync_parent_dir(const std::string &path);

/**
 * Writes all of @p data to @p fd, retrying short and interrupted writes
 * (journal records and report commits alike).
 * @throw Error naming @p path when a write fails.
 */
void write_all(int fd, const char *data, std::size_t size,
               const std::string &path);

}  // namespace anvil::runner

#endif  // ANVIL_RUNNER_JOURNAL_HH
