#include "apps/mv_store.hh"

#include <cstring>

#include "sim/logging.hh"

namespace clio {

std::vector<std::uint8_t>
mvEncode(MvOp op, std::uint64_t object_id, std::uint64_t version,
         const std::string &value)
{
    std::vector<std::uint8_t> out;
    out.reserve(17 + value.size());
    out.push_back(static_cast<std::uint8_t>(op));
    for (int i = 0; i < 8; i++)
        out.push_back(static_cast<std::uint8_t>(object_id >> (8 * i)));
    for (int i = 0; i < 8; i++)
        out.push_back(static_cast<std::uint8_t>(version >> (8 * i)));
    out.insert(out.end(), value.begin(), value.end());
    return out;
}

ClioMvOffload::ClioMvOffload(std::uint32_t value_size,
                             std::uint32_t max_objects,
                             std::uint32_t max_versions)
    : value_size_(value_size), max_objects_(max_objects),
      max_versions_(max_versions)
{
    clio_assert(value_size > 0 && max_objects > 0 && max_versions > 0,
                "bad Clio-MV geometry");
}

OffloadDescriptor
ClioMvOffload::descriptor(std::uint32_t id)
{
    OffloadDescriptor desc;
    desc.id = id;
    desc.name = "clio-mv";
    desc.arg_bytes = 0; // variable: op + object id + version (+ value)
    desc.lut = 6200.0;         // descriptor walker + version indexer
    desc.bram_bytes = 32768.0; // descriptor cache + value buffer
    return desc;
}

void
ClioMvOffload::init(OffloadVm &vm)
{
    desc_table_ = vm.alloc(max_objects_ * kDescBytes);
    clio_assert(desc_table_ != 0, "Clio-MV: descriptor table alloc");
    free_ids_.reserve(max_objects_);
    for (std::uint64_t id = max_objects_; id-- > 0;)
        free_ids_.push_back(id);
}

bool
ClioMvOffload::readDesc(OffloadVm &vm, std::uint64_t id, Descriptor &desc)
{
    if (id >= max_objects_)
        return false;
    return vm.read(desc_table_ + id * kDescBytes, &desc, kDescBytes);
}

bool
ClioMvOffload::writeDesc(OffloadVm &vm, std::uint64_t id,
                         const Descriptor &desc)
{
    return vm.write(desc_table_ + id * kDescBytes, &desc, kDescBytes);
}

OffloadResult
ClioMvOffload::invoke(OffloadVm &vm, const std::vector<std::uint8_t> &arg)
{
    OffloadResult res;
    if (arg.size() < 17) {
        res.status = Status::kOffloadError;
        return res;
    }
    const MvOp op = static_cast<MvOp>(arg[0]);
    std::uint64_t id = 0, version = 0;
    for (int i = 0; i < 8; i++)
        id |= static_cast<std::uint64_t>(arg[1 + i]) << (8 * i);
    for (int i = 0; i < 8; i++)
        version |= static_cast<std::uint64_t>(arg[9 + i]) << (8 * i);
    std::string value(reinterpret_cast<const char *>(arg.data() + 17),
                      arg.size() - 17);

    switch (op) {
      case MvOp::kCreate:
        return create(vm);
      case MvOp::kAppend:
        return append(vm, id, value);
      case MvOp::kReadVersion:
        return readVersion(vm, id, version, false);
      case MvOp::kReadLatest:
        return readVersion(vm, id, 0, true);
      case MvOp::kDelete:
        return destroy(vm, id);
    }
    res.status = Status::kOffloadError;
    return res;
}

OffloadResult
ClioMvOffload::create(OffloadVm &vm)
{
    OffloadResult res;
    if (free_ids_.empty()) {
        res.status = Status::kOutOfMemory;
        return res;
    }
    const std::uint64_t id = free_ids_.back();
    // Allocate the per-object version array (§6: an array stores the
    // versions of each object).
    Descriptor desc;
    desc.array_addr = vm.alloc(
        static_cast<std::uint64_t>(max_versions_) * value_size_);
    if (!desc.array_addr) {
        res.status = Status::kOutOfMemory;
        return res;
    }
    free_ids_.pop_back();
    desc.latest = 0;
    desc.in_use = 1;
    writeDesc(vm, id, desc);
    res.value = id;
    return res;
}

OffloadResult
ClioMvOffload::append(OffloadVm &vm, std::uint64_t id,
                      const std::string &value)
{
    OffloadResult res;
    Descriptor desc;
    if (!readDesc(vm, id, desc) || !desc.in_use ||
        value.size() != value_size_) {
        res.status = Status::kOffloadError;
        return res;
    }
    if (desc.latest >= max_versions_) {
        res.status = Status::kOutOfMemory;
        return res;
    }
    // Version numbers are 1-based; slot v-1 holds version v.
    const std::uint64_t v = desc.latest + 1;
    vm.write(desc.array_addr + (v - 1) * value_size_, value.data(),
             value_size_);
    desc.latest = v;
    writeDesc(vm, id, desc);
    res.value = v;
    return res;
}

OffloadResult
ClioMvOffload::readVersion(OffloadVm &vm, std::uint64_t id,
                           std::uint64_t version, bool latest)
{
    OffloadResult res;
    Descriptor desc;
    if (!readDesc(vm, id, desc) || !desc.in_use) {
        res.status = Status::kOffloadError;
        return res;
    }
    const std::uint64_t v = latest ? desc.latest : version;
    if (v == 0 || v > desc.latest) {
        res.status = Status::kOffloadError;
        return res;
    }
    res.data.resize(value_size_);
    vm.read(desc.array_addr + (v - 1) * value_size_, res.data.data(),
            value_size_);
    res.value = v;
    return res;
}

OffloadResult
ClioMvOffload::destroy(OffloadVm &vm, std::uint64_t id)
{
    OffloadResult res;
    Descriptor desc;
    if (!readDesc(vm, id, desc) || !desc.in_use) {
        res.status = Status::kOffloadError;
        return res;
    }
    vm.free(desc.array_addr);
    desc = Descriptor{};
    writeDesc(vm, id, desc);
    free_ids_.push_back(id);
    return res;
}

// ---------------------------------------------------------------------
// CN-side client
// ---------------------------------------------------------------------

ClioMvClient::ClioMvClient(ClioClient &client, NodeId mn,
                           std::uint32_t offload_id,
                           std::uint32_t value_size)
    : client_(client), mn_(mn), offload_id_(offload_id),
      value_size_(value_size)
{
}

std::optional<std::uint64_t>
ClioMvClient::create()
{
    const Result<OffloadReply> reply =
        client_.rcall(mn_, offload_id_, mvEncode(MvOp::kCreate));
    if (!reply)
        return std::nullopt;
    return reply->value;
}

std::optional<std::uint64_t>
ClioMvClient::append(std::uint64_t id, const std::string &value)
{
    clio_assert(value.size() == value_size_,
                "Clio-MV values are fixed size");
    const Result<OffloadReply> reply = client_.rcall(
        mn_, offload_id_, mvEncode(MvOp::kAppend, id, 0, value));
    if (!reply)
        return std::nullopt;
    return reply->value;
}

std::optional<std::string>
ClioMvClient::readLatest(std::uint64_t id)
{
    const Result<OffloadReply> reply =
        client_.rcall(mn_, offload_id_, mvEncode(MvOp::kReadLatest, id),
                      value_size_ + 32);
    if (!reply)
        return std::nullopt;
    return std::string(reply->data.begin(), reply->data.end());
}

std::optional<std::string>
ClioMvClient::readVersion(std::uint64_t id, std::uint64_t version)
{
    const Result<OffloadReply> reply = client_.rcall(
        mn_, offload_id_, mvEncode(MvOp::kReadVersion, id, version),
        value_size_ + 32);
    if (!reply)
        return std::nullopt;
    return std::string(reply->data.begin(), reply->data.end());
}

bool
ClioMvClient::remove(std::uint64_t id)
{
    return client_.rcall(mn_, offload_id_, mvEncode(MvOp::kDelete, id))
        .ok();
}

} // namespace clio
