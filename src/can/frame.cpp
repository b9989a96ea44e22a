#include "can/frame.hpp"

#include <array>
#include <cstdio>

#include "util/assert.hpp"

namespace sa::can {

namespace {
CanFrame make_frame(std::uint32_t id, const std::uint8_t* bytes, std::size_t count,
                    bool extended) {
    SA_REQUIRE(count <= 8, "classic CAN payload is at most 8 bytes");
    SA_REQUIRE(id <= (extended ? kMaxExtendedId : kMaxStandardId), "CAN id out of range");
    CanFrame f;
    f.id = id;
    f.extended = extended;
    f.dlc = static_cast<std::uint8_t>(count);
    for (std::size_t i = 0; i < count; ++i) {
        f.data[i] = bytes[i];
    }
    return f;
}
} // namespace

CanFrame CanFrame::make(std::uint32_t id, std::initializer_list<std::uint8_t> bytes,
                        bool extended) {
    return make_frame(id, bytes.begin(), bytes.size(), extended);
}

CanFrame CanFrame::make(std::uint32_t id, const std::vector<std::uint8_t>& bytes,
                        bool extended) {
    return make_frame(id, bytes.data(), bytes.size(), extended);
}

bool CanFrame::valid() const noexcept {
    if (dlc > 8) {
        return false;
    }
    return id <= (extended ? kMaxExtendedId : kMaxStandardId);
}

std::string CanFrame::str() const {
    // There is no validity precondition (it is used to describe bad frames
    // too), so clamp to the payload that actually exists. Worst case fits
    // easily: "x" + 8 hex id + " [255]" + 8 * " : ff" = well under 64 bytes.
    char buf[64];
    int n = std::snprintf(buf, sizeof buf, "%s%x [%d]", extended ? "x" : "", id, int(dlc));
    const int payload = dlc > 8 ? 8 : int(dlc);
    for (int i = 0; i < payload; ++i) {
        n += std::snprintf(buf + n, sizeof buf - static_cast<std::size_t>(n), "%s%x",
                           i ? " " : " : ", int(data[static_cast<std::size_t>(i)]));
    }
    return {buf, static_cast<std::size_t>(n)};
}

namespace {

/// One CRC-15 register step for one bit (ISO 11898-1).
constexpr std::uint16_t crc15_step(std::uint16_t crc, unsigned bit) noexcept {
    const unsigned feedback = bit ^ ((crc >> 14) & 1u);
    crc = static_cast<std::uint16_t>((crc << 1) & 0x7FFF);
    return feedback != 0 ? static_cast<std::uint16_t>(crc ^ 0x4599) : crc;
}

/// kCrc15[x] is the register after 8 zero-input steps from x << 7, so a
/// whole byte costs one lookup:
/// crc' = ((crc << 8) & 0x7FFF) ^ kCrc15[(crc >> 7) ^ byte].
constexpr std::array<std::uint16_t, 256> kCrc15 = [] {
    std::array<std::uint16_t, 256> table{};
    for (unsigned x = 0; x < 256; ++x) {
        auto crc = static_cast<std::uint16_t>(x << 7);
        for (int i = 0; i < 8; ++i) {
            crc = crc15_step(crc, 0);
        }
        table[x] = crc;
    }
    return table;
}();

/// The stuffing state is the last bit on the wire (stuff bits included) and
/// its run length 1..4, packed as last * 4 + run - 1. A fifth equal bit
/// never persists: the transmitter stuffs its complement, a new run of 1.
constexpr unsigned stuff_step(unsigned state, unsigned bit, int& stuffed) noexcept {
    if (bit != state >> 2) {
        return bit << 2;
    }
    if ((state & 3u) < 3u) {
        return state + 1;
    }
    ++stuffed;
    return (bit ^ 1u) << 2;
}

/// kStuff[state][byte]: the state after the byte's 8 bits (MSB first) in the
/// low 3 bits, the stuff bits inserted meanwhile (at most 2) above them.
constexpr std::array<std::array<std::uint8_t, 256>, 8> kStuff = [] {
    std::array<std::array<std::uint8_t, 256>, 8> table{};
    for (unsigned start = 0; start < 8; ++start) {
        for (unsigned byte = 0; byte < 256; ++byte) {
            unsigned state = start;
            int stuffed = 0;
            for (int i = 7; i >= 0; --i) {
                state = stuff_step(state, (byte >> i) & 1u, stuffed);
            }
            table[start][byte] = static_cast<std::uint8_t>(state | (stuffed << 3));
        }
    }
    return table;
}();

/// The stuffable bits (at most 118), MSB first: whole bytes in `bytes`, the
/// last `pending` bits in the low bits of `acc`.
struct PackedBits {
    std::array<std::uint8_t, 16> bytes{};
    std::size_t full = 0;
    std::uint64_t acc = 0;
    int pending = 0;

    void put(std::uint32_t value, int width) noexcept { // width <= 32
        acc = (acc << width) | value;
        pending += width;
        while (pending >= 8) {
            pending -= 8;
            bytes[full++] = static_cast<std::uint8_t>(acc >> pending);
        }
    }
    [[nodiscard]] unsigned pending_bit(int i) const noexcept {
        return static_cast<unsigned>(acc >> i) & 1u;
    }
};

} // namespace

std::int64_t frame_exact_bits(const CanFrame& frame) {
    SA_REQUIRE(frame.valid(), "invalid CAN frame");
    PackedBits bits;
    // The first width counts the dominant (0) SOF bit ahead of the value.
    // Standard: SOF, id, RTR IDE r0 = 000, DLC. Extended: SOF, base id,
    // SRR IDE = 11, then id extension, RTR r1 r0 = 000, DLC.
    if (!frame.extended) {
        bits.put((frame.id << 7) | frame.dlc, 19);
    } else {
        bits.put(((frame.id >> 18) << 2) | 0b11u, 14);
        bits.put(((frame.id & 0x3FFFF) << 7) | frame.dlc, 25);
    }
    for (std::size_t i = 0; i < frame.dlc; ++i) {
        bits.put(frame.data[i], 8);
    }
    std::uint16_t crc = 0;
    for (std::size_t i = 0; i < bits.full; ++i) {
        crc = static_cast<std::uint16_t>(((crc << 8) & 0x7FFF) ^
                                         kCrc15[(crc >> 7) ^ bits.bytes[i]]);
    }
    for (int i = bits.pending - 1; i >= 0; --i) {
        crc = crc15_step(crc, bits.pending_bit(i));
    }
    bits.put(crc, 15);
    // As if a recessive bit preceded SOF, so SOF starts a run of 1.
    unsigned state = 1u << 2;
    int stuffed = 0;
    for (std::size_t i = 0; i < bits.full; ++i) {
        const std::uint8_t step = kStuff[state][bits.bytes[i]];
        state = step & 7u;
        stuffed += step >> 3;
    }
    for (int i = bits.pending - 1; i >= 0; --i) {
        state = stuff_step(state, bits.pending_bit(i), stuffed);
    }
    return static_cast<std::int64_t>(8 * bits.full) + bits.pending + stuffed + kFrameTrailerBits;
}

} // namespace sa::can
