/**
 * @file
 * MTU splitting helper (§4.5 T1): slices one message's payload into
 * link-layer packets, each self-describing (full Clio header + the
 * payload byte range it carries), and hands them to the network.
 */

#ifndef CLIO_PROTO_WIRE_HH
#define CLIO_PROTO_WIRE_HH

#include <memory>

#include "net/network.hh"
#include "net/packet.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace clio {

/** Number of link-layer packets a payload of `payload_bytes` needs. */
std::uint32_t packetCount(std::uint64_t payload_bytes, std::uint32_t mtu);

/**
 * Split a message and hand its parts to `net` at tick `when`, in part
 * order: inline if `when` <= now, else from one event at `when`.
 *
 * @param payload_bytes sliceable payload (write data or read response
 *        data); header-only messages pass 0 and still get one packet.
 */
void sendSplit(EventQueue &eq, Network &net, Tick when, NodeId src,
               NodeId dst, ReqId req_id, MsgType type,
               std::uint64_t payload_bytes,
               std::shared_ptr<const Message> msg);

} // namespace clio

#endif // CLIO_PROTO_WIRE_HH
