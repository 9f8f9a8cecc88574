#include "mem/directory.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace bulksc {

Directory::Directory(const SignatureConfig &cfg, unsigned num_procs,
                     std::size_t max_entries)
    : sigCfg(cfg), numProcs(num_procs), maxEntries(max_entries)
{
    buckets.resize(sigCfg.bitsPerBank());
}

std::uint32_t
Directory::bucketOf(LineAddr line) const
{
    return static_cast<std::uint32_t>(line) & (sigCfg.bitsPerBank() - 1);
}

std::uint64_t
Directory::entryDigest(LineAddr line, const DirEntry &e)
{
    std::uint64_t v = mix64(line);
    v = mix64(v ^ e.sharers);
    return mix64(v ^ (std::uint64_t{e.dirty} << 32) ^ e.owner);
}

void
Directory::displace(LineAddr line, std::uint32_t slot)
{
    digest -= entryDigest(line, slab[slot]);
    auto &bucket = buckets[bucketOf(line)];
    auto pos = std::find_if(
        bucket.begin(), bucket.end(),
        [line](const auto &b) { return b.first == line; });
    *pos = bucket.back();
    bucket.pop_back();
    index.erase(line);
    freeSlots.push_back(slot);
}

DirEntry &
Directory::getOrCreate(LineAddr line,
                       std::vector<DirDisplacement> &displaced)
{
    if (DirEntry *e = find(line))
        return *e;

    // Directory cache: displace the oldest entry when full
    // (Section 4.3.3). The caller broadcasts the displacement
    // signature for bulk disambiguation.
    if (maxEntries && index.size() >= maxEntries) {
        while (fifoHead < fifo.size()) {
            LineAddr victim = fifo[fifoHead++];
            const std::uint32_t *vslot = index.find(victim);
            if (!vslot)
                continue; // stale fifo slot
            const DirEntry &v = slab[*vslot];
            displaced.push_back(
                DirDisplacement{victim, v.sharers, v.dirty, v.owner});
            displace(victim, *vslot);
            break;
        }
        if (fifoHead > 4096 && fifoHead * 2 > fifo.size()) {
            fifo.erase(fifo.begin(),
                       fifo.begin() + static_cast<long>(fifoHead));
            fifoHead = 0;
        }
    }

    std::uint32_t slot;
    if (!freeSlots.empty()) {
        slot = freeSlots.back();
        freeSlots.pop_back();
        slab[slot] = DirEntry{};
    } else {
        slot = static_cast<std::uint32_t>(slab.size());
        slab.emplace_back();
    }
    index.try_emplace(line, slot);
    digest += entryDigest(line, slab[slot]);
    buckets[bucketOf(line)].emplace_back(line, slot);
    if (maxEntries)
        fifo.push_back(line);
    return slab[slot];
}

void
Directory::recordRead(LineAddr line, ProcId p,
                      std::vector<DirDisplacement> &displaced)
{
    DirEntry &e = getOrCreate(line, displaced);
    if (!e.isSharer(p))
        update(line, e, [p](DirEntry &d) { d.addSharer(p); });
}

std::uint32_t
Directory::recordReadEx(LineAddr line, ProcId p,
                        std::vector<DirDisplacement> &displaced)
{
    DirEntry &e = getOrCreate(line, displaced);
    std::uint32_t to_inval = e.sharers & ~(1u << p);
    update(line, e, [p](DirEntry &d) {
        d.sharers = 1u << p;
        d.dirty = true;
        d.owner = p;
    });
    return to_inval;
}

void
Directory::recordWriteback(LineAddr line, ProcId p)
{
    DirEntry *e = find(line);
    if (e && e->dirty && e->owner == p)
        update(line, *e, [](DirEntry &d) { d.dirty = false; });
}

void
Directory::dropSharer(LineAddr line, ProcId p)
{
    DirEntry *e = find(line);
    if (!e)
        return;
    update(line, *e, [p](DirEntry &d) {
        d.sharers &= ~(1u << p);
        if (d.dirty && d.owner == p)
            d.dirty = false;
    });
}

ExpansionResult
Directory::expand(const Signature &w, ProcId committer)
{
    ExpansionResult res;
    if (w.empty())
        return res;

    // Delta-decode bank 0 to find the candidate buckets, then probe
    // each resident line for full membership — the hardware equivalent
    // of the directed tag lookups of signature expansion. Entries are
    // independent and every result is an OR or a sum, so the order in
    // which a bucket lists its lines does not matter.
    for (std::uint32_t idx : w.decodeBank0()) {
        for (auto [line, slot] : buckets[idx]) {
            if (!w.contains(line))
                continue;
            ++res.lookups;
            // Aliasing stats (Table 4) need the exact mirror; without
            // it every lookup counts as genuine.
            bool truly_written =
                !w.tracksExact() || w.containsExact(line);
            if (!truly_written)
                ++res.aliasLookups;

            DirEntry &e = slab[slot];

            // Table 1: the four possible states of a selected entry.
            if (!e.dirty && !e.isSharer(committer)) {
                // Case 1: false positive — the committing processor
                // would have fetched the line and be in the bit vector
                // already.
                continue;
            }
            if (!e.dirty && e.isSharer(committer)) {
                // Case 2: committing processor becomes the owner; all
                // other sharers join the Invalidation List.
                res.invalidationList |= e.sharers & ~(1u << committer);
                update(line, e, [committer](DirEntry &d) {
                    d.sharers = 1u << committer;
                    d.dirty = true;
                    d.owner = committer;
                });
                ++res.updates;
                if (!truly_written)
                    ++res.aliasUpdates;
                continue;
            }
            if (e.dirty && !e.isSharer(committer)) {
                // Case 3: false positive — do nothing.
                continue;
            }
            // Case 4: dirty and committing proc is a sharer. If the proc
            // is already the owner there is nothing to do; a dirty entry
            // owned by someone else with the committer as sharer cannot
            // occur in this protocol (dirty implies a single sharer).
        }
    }
    return res;
}

const DirEntry *
Directory::peek(LineAddr line) const
{
    const std::uint32_t *slot = index.find(line);
    return slot ? &slab[*slot] : nullptr;
}

} // namespace bulksc
