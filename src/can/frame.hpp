#pragma once
// Classic CAN (2.0A/2.0B) data frames with exact on-wire bit counts: the
// frame fields (SOF, arbitration, control, data, CRC-15) are packed into
// bytes and the CAN bit-stuffing rule is applied to them, giving the true
// transmission length. Tests check it against a bit-by-bit reference
// encoder and against the analytical worst case used by the
// schedulability analysis (analysis/can_wcrt).

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace sa::can {

inline constexpr std::uint32_t kMaxStandardId = 0x7FF;
inline constexpr std::uint32_t kMaxExtendedId = 0x1FFFFFFF;

struct CanFrame {
    std::uint32_t id = 0;
    bool extended = false;
    std::uint8_t dlc = 0; ///< 0..8 data bytes
    std::array<std::uint8_t, 8> data{};

    /// Construct with validation.
    static CanFrame make(std::uint32_t id, std::initializer_list<std::uint8_t> bytes,
                         bool extended = false);
    static CanFrame make(std::uint32_t id, const std::vector<std::uint8_t>& bytes,
                         bool extended = false);

    [[nodiscard]] bool valid() const noexcept;
    /// Hex id ("x" prefix when extended), "[dlc]", then the payload bytes
    /// in hex, e.g. "x1abcdef0 [2] : de 0". Safe on invalid frames.
    [[nodiscard]] std::string str() const;

    bool operator==(const CanFrame&) const = default;
};

/// Exact total number of bits on the wire for this frame, including stuff
/// bits and the fixed trailer (CRC delimiter, ACK slot + delimiter, EOF) but
/// excluding inter-frame space. Stuffing applies from SOF through the CRC
/// sequence. The bus calls this once per transmission: it packs the fields
/// into bytes and takes the CRC-15 (polynomial 0x4599, ISO 11898-1) and the
/// stuff bits a byte per table lookup, with a bitwise tail for the last
/// bits; no allocation and no per-bit pass over the frame.
[[nodiscard]] std::int64_t frame_exact_bits(const CanFrame& frame);

/// Fixed trailer + interframe space constants.
inline constexpr std::int64_t kFrameTrailerBits = 1 /*CRC del*/ + 2 /*ACK*/ + 7 /*EOF*/;
inline constexpr std::int64_t kInterframeSpaceBits = 3;

} // namespace sa::can
