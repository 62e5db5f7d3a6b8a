/**
 * @file
 * Byte-addressable physical memory for one memory node.
 *
 * Storage is sparse (allocated in fixed-size chunks on first write) so
 * a simulated MN can be configured with, say, 2 GB or 4 TB of physical
 * memory without the host paying for untouched bytes. Chunks hang off
 * a two-level table: a directory sized from the capacity (one pointer
 * per 256 MiB leaf span, so a 4 TiB node costs 128 KiB) whose leaves
 * (4096 chunk pointers each) are allocated on the first write into
 * their span. Reads and zero-fills of untouched memory allocate
 * nothing, and finding a chunk is two array indexings. All reads and
 * writes move real data: end-to-end tests verify that what a client
 * reads through the whole network/translation stack is exactly what was
 * written, even under loss/reordering/retry.
 */

#ifndef CLIO_MEM_PHYSICAL_MEMORY_HH
#define CLIO_MEM_PHYSICAL_MEMORY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/types.hh"

namespace clio {

/** Sparse backing store for one MN's on-board DRAM. */
class PhysicalMemory
{
  public:
    /** @param capacity total physical bytes this MN hosts. */
    explicit PhysicalMemory(std::uint64_t capacity);

    std::uint64_t capacity() const { return capacity_; }

    /**
     * Copy `len` bytes from physical address `addr` into `dst`.
     * Untouched memory reads as zero. Panics on out-of-range access
     * (the translation layer must never produce one).
     */
    void read(PhysAddr addr, void *dst, std::uint64_t len) const;

    /** Copy `len` bytes from `src` into physical address `addr`. */
    void write(PhysAddr addr, const void *src, std::uint64_t len);

    /** Read a little-endian 64-bit word (for atomics). */
    std::uint64_t read64(PhysAddr addr) const;

    /** Write a little-endian 64-bit word. */
    void write64(PhysAddr addr, std::uint64_t value);

    /** Zero-fill a range (used when a fresh frame is handed out). */
    void zero(PhysAddr addr, std::uint64_t len);

    /** Number of host-side chunks actually materialized (test hook). */
    std::size_t materializedChunks() const { return materialized_; }

    /** @{ Table geometry (test hooks): bytes per chunk and per leaf. */
    static constexpr std::uint64_t kChunkBytes = 64 * KiB;
    static constexpr std::uint64_t kLeafChunks = 4096;
    static constexpr std::uint64_t kLeafBytes = kChunkBytes * kLeafChunks;
    /** @} */

  private:
    using Leaf = std::array<std::unique_ptr<std::uint8_t[]>, kLeafChunks>;

    /** Chunk `chunk_index` if materialized, else nullptr. */
    const std::uint8_t *findChunk(std::uint64_t chunk_index) const;
    /** Chunk `chunk_index`, materializing it (and its leaf) if absent. */
    std::uint8_t *chunkFor(std::uint64_t chunk_index);

    std::uint64_t capacity_;
    /** Leaf directory: entry i covers chunks [i, i+1) * kLeafChunks. */
    std::vector<std::unique_ptr<Leaf>> dir_;
    std::size_t materialized_ = 0;
};

} // namespace clio

#endif // CLIO_MEM_PHYSICAL_MEMORY_HH
