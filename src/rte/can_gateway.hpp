#pragma once
// CAN gateway: binds RTE tasks to CAN I/O so distributed cause-effect chains
// exist at *runtime*, not only in the timing model:
//   - activate_on_rx: a matching frame releases a (sporadic) task,
//   - transmit_on_completion: a task's completion enqueues a frame.
// Together with analysis::ChainLatencyAnalysis this closes the loop between
// the executable system and the MCC's end-to-end latency acceptance test
// (property-tested: observed chain latency <= analytical bound).

#include <cstdint>
#include <functional>
#include <vector>

#include "can/controller.hpp"
#include "rte/scheduler.hpp"

namespace sa::rte {

class CanGateway {
public:
    /// Creates a native CAN controller attached to `bus`.
    explicit CanGateway(can::CanBus& bus, std::size_t tx_queue = 64);

    CanGateway(const CanGateway&) = delete;
    CanGateway& operator=(const CanGateway&) = delete;

    /// Release `task` on `scheduler` whenever a frame matching (id & mask)
    /// arrives. The frame is handed to `on_data` (optional) before release.
    void activate_on_rx(FixedPriorityScheduler& scheduler, TaskId task,
                        std::uint32_t id, std::uint32_t mask,
                        std::function<void(const can::CanFrame&)> on_data = nullptr);

    /// Transmit a frame every time `task` completes. `payload` (optional)
    /// fills the frame's data bytes at send time.
    void transmit_on_completion(FixedPriorityScheduler& scheduler, TaskId task,
                                can::CanFrame frame,
                                std::function<void(can::CanFrame&)> payload = nullptr);

    [[nodiscard]] std::uint64_t activations() const noexcept { return activations_; }
    [[nodiscard]] std::uint64_t transmissions() const noexcept { return transmissions_; }

private:
    can::CanController controller_;
    std::uint64_t activations_ = 0;
    std::uint64_t transmissions_ = 0;
};

} // namespace sa::rte
