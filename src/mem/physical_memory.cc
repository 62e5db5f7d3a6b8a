#include "mem/physical_memory.hh"

#include <cstring>

#include "sim/logging.hh"

namespace clio {

PhysicalMemory::PhysicalMemory(std::uint64_t capacity)
    : capacity_(capacity),
      dir_((capacity + kLeafBytes - 1) / kLeafBytes)
{
    clio_assert(capacity > 0, "physical memory capacity must be nonzero");
}

const std::uint8_t *
PhysicalMemory::findChunk(std::uint64_t chunk_index) const
{
    const Leaf *leaf = dir_[chunk_index / kLeafChunks].get();
    return leaf ? (*leaf)[chunk_index % kLeafChunks].get() : nullptr;
}

std::uint8_t *
PhysicalMemory::chunkFor(std::uint64_t chunk_index)
{
    auto &leaf = dir_[chunk_index / kLeafChunks];
    if (!leaf)
        leaf = std::make_unique<Leaf>();
    auto &chunk = (*leaf)[chunk_index % kLeafChunks];
    if (!chunk) {
        // make_unique<T[]> value-initializes: a fresh chunk reads zero.
        chunk = std::make_unique<std::uint8_t[]>(kChunkBytes);
        materialized_++;
    }
    return chunk.get();
}

void
PhysicalMemory::read(PhysAddr addr, void *dst, std::uint64_t len) const
{
    clio_assert(addr + len <= capacity_ && addr + len >= addr,
                "PA read out of range: addr=%llu len=%llu cap=%llu",
                (unsigned long long)addr, (unsigned long long)len,
                (unsigned long long)capacity_);
    auto *out = static_cast<std::uint8_t *>(dst);
    while (len > 0) {
        const std::uint64_t chunk_index = addr / kChunkBytes;
        const std::uint64_t offset = addr % kChunkBytes;
        const std::uint64_t n = std::min(len, kChunkBytes - offset);
        if (const std::uint8_t *chunk = findChunk(chunk_index))
            std::memcpy(out, chunk + offset, n);
        else
            std::memset(out, 0, n); // untouched memory reads as zero
        out += n;
        addr += n;
        len -= n;
    }
}

void
PhysicalMemory::write(PhysAddr addr, const void *src, std::uint64_t len)
{
    clio_assert(addr + len <= capacity_ && addr + len >= addr,
                "PA write out of range: addr=%llu len=%llu cap=%llu",
                (unsigned long long)addr, (unsigned long long)len,
                (unsigned long long)capacity_);
    const auto *in = static_cast<const std::uint8_t *>(src);
    while (len > 0) {
        const std::uint64_t chunk_index = addr / kChunkBytes;
        const std::uint64_t offset = addr % kChunkBytes;
        const std::uint64_t n = std::min(len, kChunkBytes - offset);
        std::memcpy(chunkFor(chunk_index) + offset, in, n);
        in += n;
        addr += n;
        len -= n;
    }
}

std::uint64_t
PhysicalMemory::read64(PhysAddr addr) const
{
    std::uint64_t v = 0;
    read(addr, &v, sizeof(v));
    return v;
}

void
PhysicalMemory::write64(PhysAddr addr, std::uint64_t value)
{
    write(addr, &value, sizeof(value));
}

void
PhysicalMemory::zero(PhysAddr addr, std::uint64_t len)
{
    clio_assert(addr + len <= capacity_ && addr + len >= addr,
                "PA zero out of range");
    while (len > 0) {
        const std::uint64_t chunk_index = addr / kChunkBytes;
        const std::uint64_t offset = addr % kChunkBytes;
        const std::uint64_t n = std::min(len, kChunkBytes - offset);
        if (findChunk(chunk_index))
            std::memset(chunkFor(chunk_index) + offset, 0, n);
        addr += n;
        len -= n;
    }
}

} // namespace clio
