#include "pagetable/tlb.hh"

#include "sim/logging.hh"

namespace clio {

Tlb::Tlb(std::uint32_t capacity)
    : capacity_(capacity), entries_(capacity), index_(capacity)
{
    clio_assert(capacity > 0, "TLB capacity must be nonzero");
    for (std::uint32_t e = 0; e + 1 < capacity; e++)
        entries_[e].next = e + 1;
}

void
Tlb::unlink(std::uint32_t e)
{
    Entry &entry = entries_[e];
    if (entry.prev != kNil)
        entries_[entry.prev].next = entry.next;
    else
        mru_ = entry.next;
    if (entry.next != kNil)
        entries_[entry.next].prev = entry.prev;
    else
        lru_ = entry.prev;
}

void
Tlb::pushMru(std::uint32_t e)
{
    Entry &entry = entries_[e];
    entry.prev = kNil;
    entry.next = mru_;
    if (mru_ != kNil)
        entries_[mru_].prev = e;
    else
        lru_ = e;
    mru_ = e;
}

void
Tlb::promote(std::uint32_t e)
{
    if (e != mru_) {
        unlink(e);
        pushMru(e);
    }
}

void
Tlb::release(std::uint32_t e)
{
    unlink(e);
    Entry &entry = entries_[e];
    index_.erase(Key{entry.pte.pid, entry.pte.vpn});
    entry.next = free_;
    free_ = e;
}

const Pte *
Tlb::lookup(ProcId pid, std::uint64_t vpn)
{
    const std::uint32_t e = index_.find(Key{pid, vpn});
    if (e == index_.kNone) {
        misses_++;
        return nullptr;
    }
    hits_++;
    promote(e);
    return &entries_[e].pte;
}

void
Tlb::insert(const Pte &pte)
{
    const Key key{pte.pid, pte.vpn};
    std::uint32_t e = index_.find(key);
    if (e != index_.kNone) {
        entries_[e].pte = pte;
        promote(e);
        return;
    }
    if (index_.size() >= capacity_)
        release(lru_);
    e = free_;
    free_ = entries_[e].next;
    entries_[e].pte = pte;
    index_.insert(key, e);
    pushMru(e);
}

void
Tlb::update(const Pte &pte)
{
    const std::uint32_t e = index_.find(Key{pte.pid, pte.vpn});
    if (e != index_.kNone)
        entries_[e].pte = pte;
}

void
Tlb::invalidate(ProcId pid, std::uint64_t vpn)
{
    const std::uint32_t e = index_.find(Key{pid, vpn});
    if (e != index_.kNone)
        release(e);
}

void
Tlb::invalidateProcess(ProcId pid)
{
    for (std::uint32_t e = mru_; e != kNil;) {
        const std::uint32_t next = entries_[e].next;
        if (entries_[e].pte.pid == pid)
            release(e);
        e = next;
    }
}

} // namespace clio
