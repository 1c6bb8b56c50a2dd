/**
 * @file
 * Crash-safe checkpoint journal for sweep execution.
 *
 * While a sweep with a file JSON destination runs, every completed
 * trial's outcome is appended to `<json-out>.journal` as a
 * length-prefixed, checksummed, fsync'd binary record. If the process
 * dies mid-sweep — Ctrl-C, SIGKILL, OOM — `--resume` replays the journal,
 * skips the trials it holds, runs only the remainder, and produces final
 * JSON byte-identical to an uninterrupted run (the sink aggregates in
 * plan order, and doubles are journaled as raw IEEE-754 bits, so replayed
 * results are bit-exact).
 *
 * Sharded runs (anvil-sim shard/supervise) write one journal per shard,
 * `<json-out>.shard-K.journal`. The header then carries the shard's
 * identity (index, count) and a hash of the full trial plan, so a merge
 * can refuse journals from a different sweep definition; shard journals
 * also interleave *lease records* — periodic heartbeats appended by the
 * child — so a supervisor can tell a shard that is slowly working from
 * one that is wedged.
 *
 * Recovery rules:
 *   - a torn trailing record (partial write at the kill point) is
 *     truncated away, never fatal;
 *   - a header that does not match the resuming sweep (different name,
 *     master seed, plan hash, or shard identity) refuses the resume with
 *     a structured error;
 *   - a record that contradicts the sweep plan (seed mismatch at its
 *     global index — the sweep definition changed) likewise refuses.
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
    /// Number of shards in the campaign; 0 = not a shard journal.
    std::uint32_t shard_count = 0;
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
     * Fresh runs truncate, write a new header, and fsync the parent
     * directory (a journal that vanishes on power loss is no journal);
     * resuming runs (@p append) keep existing records and validate the
     * header first.
     * @throw Error on I/O failure or an append-mode header mismatch.
     */
    void open(const std::string &path, const JournalHeader &header,
              bool append);

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
 * Reads every intact trial record of @p path (lease records are
 * skipped), validating the header against @p expect: sweep name, master
 * seed, and plan hash always; shard identity only when @p expect is a
 * shard journal (nonzero shard_count). A torn or corrupt tail is
 * truncated from the file (recovery, reported on stderr), not an error.
 * @throw Error when the file exists but belongs to a different sweep.
 */
std::vector<JournalRecord> read_journal(const std::string &path,
                                        const JournalHeader &expect);

/**
 * Reads and returns just the header of @p path (merge diagnostics:
 * report which shard a journal claims to be before validating it).
 * @throw Error when the file is missing or not a journal.
 */
JournalHeader read_journal_header(const std::string &path);

/**
 * Canonical encoding of one trial record's payload. Two records encode
 * identically iff they describe the same outcome bit-for-bit — the
 * merge uses this to accept duplicate trials claimed by two shards
 * (requeue races) while refusing divergent ones.
 */
std::string encode_journal_payload(const TrialSpec &spec,
                                   const TrialOutcome &outcome);

/** The journal path for a JSON destination: `<json_out>.journal`. */
std::string journal_path(const std::string &json_out);

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

}  // namespace anvil::runner

#endif  // ANVIL_RUNNER_JOURNAL_HH
