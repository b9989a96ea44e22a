#include "rte/can_gateway.hpp"

#include "util/assert.hpp"

namespace sa::rte {

CanGateway::CanGateway(can::CanBus& bus, std::size_t tx_queue) : controller_(bus, tx_queue) {}

void CanGateway::activate_on_rx(FixedPriorityScheduler& scheduler, TaskId task,
                                std::uint32_t id, std::uint32_t mask,
                                std::function<void(const can::CanFrame&)> on_data) {
    SA_REQUIRE(scheduler.has_task(task), "activate_on_rx: unknown task");
    controller_.add_rx_filter(
        id, mask,
        [this, &scheduler, task, on_data = std::move(on_data)](
            const can::CanFrame& frame, sim::Time) {
            if (!scheduler.has_task(task)) {
                return; // task removed (component stopped/contained)
            }
            if (on_data) {
                on_data(frame);
            }
            ++activations_;
            scheduler.release(task);
        });
}

void CanGateway::transmit_on_completion(FixedPriorityScheduler& scheduler, TaskId task,
                                        can::CanFrame frame,
                                        std::function<void(can::CanFrame&)> payload) {
    SA_REQUIRE(scheduler.has_task(task), "transmit_on_completion: unknown task");
    SA_REQUIRE(frame.valid(), "transmit_on_completion: invalid frame template");
    scheduler.job_completed().subscribe(
        [this, task, frame, payload = std::move(payload)](const JobRecord& job) mutable {
            if (job.task != task) {
                return;
            }
            can::CanFrame out = frame;
            if (payload) {
                payload(out);
            }
            ++transmissions_;
            (void)controller_.send(out);
        });
}

} // namespace sa::rte
