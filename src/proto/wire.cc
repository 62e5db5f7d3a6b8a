#include "proto/wire.hh"

#include <algorithm>
#include <ostream>

#include "proto/messages.hh"
#include "sim/logging.hh"

namespace clio {

std::ostream &
operator<<(std::ostream &os, Status status)
{
    return os << to_string(status);
}

std::uint32_t
packetCount(std::uint64_t payload_bytes, std::uint32_t mtu)
{
    const std::uint32_t payload_per_pkt = mtu - kPacketHeaderBytes;
    if (payload_bytes == 0)
        return 1;
    return static_cast<std::uint32_t>(
        (payload_bytes + payload_per_pkt - 1) / payload_per_pkt);
}

void
sendSplit(EventQueue &eq, Network &net, Tick when, NodeId src, NodeId dst,
          ReqId req_id, MsgType type, std::uint64_t payload_bytes,
          std::shared_ptr<const Message> msg)
{
    const std::uint32_t mtu = net.config().mtu;
    clio_assert(mtu > kPacketHeaderBytes, "MTU smaller than headers");
    auto send_parts = [&net, mtu, src, dst, req_id, type, payload_bytes,
                       msg = std::move(msg)]() mutable {
        const std::uint32_t payload_per_pkt = mtu - kPacketHeaderBytes;
        const std::uint32_t total = packetCount(payload_bytes, mtu);
        std::uint64_t offset = 0;
        for (std::uint32_t part = 0; part < total; part++) {
            Packet pkt;
            pkt.src = src;
            pkt.dst = dst;
            pkt.req_id = req_id;
            pkt.type = type;
            pkt.part = part;
            pkt.total_parts = total;
            pkt.payload_offset = offset;
            pkt.payload_len = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(payload_per_pkt,
                                        payload_bytes - offset));
            pkt.wire_bytes = pkt.payload_len + kPacketHeaderBytes;
            pkt.msg = part + 1 < total ? msg : std::move(msg);
            offset += pkt.payload_len;
            net.send(std::move(pkt));
        }
    };
    static_assert(EventCallback::fitsInline<decltype(send_parts)>(),
                  "a boxed send closure would allocate per message");
    if (when <= eq.now())
        send_parts();
    else
        eq.schedule(when, std::move(send_parts));
}

} // namespace clio
