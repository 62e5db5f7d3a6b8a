#include "devsim/dev_board.hh"

namespace clio {

DevBoard::DevBoard(const ModelConfig &cfg)
    : net_(eq_, cfg.net, cfg.seed + 4242)
{
    board_ = std::make_unique<CBoard>(eq_, net_, cfg);
}

DevProcess
DevBoard::openProcess()
{
    return DevProcess(*this, next_pid_++);
}

void
DevBoard::registerOffloadShared(OffloadDescriptor desc,
                                std::shared_ptr<Offload> offload,
                                const DevProcess &proc)
{
    board_->registerOffloadShared(std::move(desc), std::move(offload),
                                  proc.pid());
}

} // namespace clio
