#include "runner/shard.hh"

#include <optional>

#include "common/text.hh"
#include "runner/journal.hh"

namespace anvil::runner {
namespace {

std::string
shard_label(std::uint32_t index)
{
    return "shard " + std::to_string(index);
}

}  // namespace

std::vector<std::vector<TrialRange>>
partition_trials(std::uint64_t total, std::uint32_t count)
{
    if (count == 0)
        throw Error("cannot partition a sweep into zero shards");
    std::vector<std::vector<TrialRange>> shards(count);
    const std::uint64_t base = total / count;
    const std::uint64_t extra = total % count;
    std::uint64_t next = 0;
    for (std::uint32_t k = 0; k < count; ++k) {
        const std::uint64_t size = base + (k < extra ? 1 : 0);
        if (size == 0)
            continue;  // empty shard: fewer trials than shards
        shards[k].push_back(TrialRange{next, next + size - 1});
        next += size;
    }
    return shards;
}

std::vector<TrialRange>
parse_trial_ranges(const std::string &text)
{
    std::vector<TrialRange> ranges;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t comma = text.find(',', pos);
        const std::string part = text.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        const auto parse_u64 = [&](const std::string &s) {
            const std::optional<std::uint64_t> v = parse_unsigned(s);
            if (!v) {
                throw Error("malformed trial range (expected "
                            "\"A-B[,C-D...]\")")
                    .with("ranges", text)
                    .with("part", part);
            }
            return *v;
        };
        TrialRange range;
        const std::size_t dash = part.find('-');
        if (dash == std::string::npos) {
            range.first = range.last = parse_u64(part);
        } else {
            range.first = parse_u64(part.substr(0, dash));
            range.last = parse_u64(part.substr(dash + 1));
        }
        if (range.last < range.first) {
            throw Error("descending trial range")
                .with("ranges", text)
                .with("part", part);
        }
        if (!ranges.empty() && range.first <= ranges.back().last) {
            throw Error("trial ranges must be ascending and disjoint")
                .with("ranges", text);
        }
        ranges.push_back(range);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    if (ranges.empty())
        throw Error("empty trial range list");
    return ranges;
}

std::string
to_string(const std::vector<TrialRange> &ranges)
{
    std::string out;
    for (const TrialRange &range : ranges) {
        if (!out.empty())
            out += ',';
        out += std::to_string(range.first);
        if (range.last != range.first)
            out += '-' + std::to_string(range.last);
    }
    return out;
}

std::vector<TrialRange>
compress_indices(const std::vector<std::uint64_t> &sorted_indices)
{
    std::vector<TrialRange> ranges;
    for (const std::uint64_t index : sorted_indices) {
        if (!ranges.empty() && ranges.back().last + 1 == index)
            ranges.back().last = index;
        else
            ranges.push_back(TrialRange{index, index});
    }
    return ranges;
}

MergeResult
merge_shards(const Campaign &campaign, const MergeOptions &options)
{
    MergeResult merge;
    if (options.shard_count == 0) {
        merge.problems.push_back("no shards to merge (shard count is 0)");
        return merge;
    }

    // The first claim of each plan trial: its outcome goes into the run,
    // its canonical payload stays for the divergence check.
    const std::vector<TrialSpec> &plan = campaign.plan;
    merge.run.outcomes.resize(plan.size());
    struct Claim {
        std::string encoded;
        std::uint32_t shard;
    };
    std::vector<std::optional<Claim>> claimed(plan.size());

    for (std::uint32_t k = 0; k < options.shard_count; ++k) {
        const std::string path = shard_journal_path(options.json_out, k);
        std::vector<JournalRecord> records;
        try {
            records = read_journal(path, campaign, k, options.shard_count);
        } catch (const Error &e) {
            merge.problems.push_back(shard_label(k) + ": " + e.what());
            continue;
        }
        std::uint64_t kept = 0, dups = 0;
        for (JournalRecord &rec : records) {
            const std::uint64_t i = rec.spec.global_index;
            std::string encoded =
                encode_journal_payload(rec.spec, rec.outcome);
            if (const std::optional<Claim> &first = claimed[i]) {
                if (first->encoded != encoded) {
                    merge.problems.push_back(
                        shard_label(k) + ": trial #" + std::to_string(i) +
                        " diverges from " + shard_label(first->shard) +
                        "'s record — the shards did not run the same "
                        "deterministic computation");
                } else {
                    ++merge.duplicates;
                    ++dups;
                    if (options.check) {
                        merge.problems.push_back(
                            shard_label(k) + ": trial #" +
                            std::to_string(i) + " also claimed by " +
                            shard_label(first->shard) +
                            " (identical record; requeue overlap)");
                    }
                }
                continue;
            }
            claimed[i] = Claim{std::move(encoded), k};
            merge.run.outcomes[i] = std::move(rec.outcome);
            ++kept;
        }
        merge.coverage.push_back(
            shard_label(k) + ": " + std::to_string(kept) +
            " trial record(s)" +
            (dups != 0 ? " + " + std::to_string(dups) + " duplicate(s)"
                       : std::string()) +
            " (" + path + ")");
    }

    // Completeness: every plan trial must be durable somewhere.
    std::vector<std::uint64_t> missing;
    for (std::uint64_t i = 0; i < plan.size(); ++i) {
        if (!claimed[i])
            missing.push_back(i);
    }
    if (!missing.empty()) {
        merge.problems.push_back(
            "incomplete campaign: trial(s) " +
            to_string(compress_indices(missing)) + " (" +
            std::to_string(missing.size()) + " of " +
            std::to_string(plan.size()) +
            ") are in no shard journal — rerun `supervise` to finish "
            "them");
    }
    if (!merge.complete())
        return merge;

    fold_in_plan_order(campaign, std::vector<bool>(plan.size(), true),
                       merge.run);
    merge.run.journals = options.shard_count;
    return merge;
}

}  // namespace anvil::runner
