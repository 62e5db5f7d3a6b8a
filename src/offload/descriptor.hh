/**
 * @file
 * Per-offload deployment descriptor (extend path, §4.6).
 *
 * Registering an offload means synthesizing its logic into the
 * CBoard's FPGA fabric, so each deployment carries a descriptor: the
 * id/name the MAT dispatches on, the argument/reply schemas the
 * runtime enforces at dispatch (typed rcall), and the LUT/BRAM
 * footprint the Fig. 22 resource model charges per deployed offload.
 * Every deployment names one: CBoard and DevBoard register offloads
 * by descriptor only. Compute cost is not described here: invoke()
 * charges it through OffloadVm::chargeCycles.
 */

#ifndef CLIO_OFFLOAD_DESCRIPTOR_HH
#define CLIO_OFFLOAD_DESCRIPTOR_HH

#include <cstdint>
#include <string>

namespace clio {

/** Deployment metadata of one registered offload. */
struct OffloadDescriptor
{
    /** Dispatch id carried in RequestMsg::offload_id. */
    std::uint32_t id = 0;
    /** Human-readable module name (stats, Fig. 22 rows, bench JSON). */
    std::string name;
    /** Fixed argument schema size in bytes; 0 = variable-length args
     * (the offload validates internally). Enforced at dispatch: a
     * mismatched rcall fails with OffloadErrc::kBadArgument without
     * invoking the offload. */
    std::uint32_t arg_bytes = 0;
    /** Synthesized logic footprint, replicated into each offload
     * engine (LUTs per engine instance). */
    double lut = 2000.0;
    /** On-chip state (BRAM bytes), one copy shared across engines. */
    double bram_bytes = 4096.0;
};

} // namespace clio

#endif // CLIO_OFFLOAD_DESCRIPTOR_HH
