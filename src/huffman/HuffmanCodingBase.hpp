#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "../bits/BitReader.hpp"
#include "../common/Util.hpp"

namespace rapidgzip {

/**
 * Code-length histogram plus the Kraft check: the ONE place any table layout
 * validates a length vector (the canonical-Huffman CRTP classes below and
 * the Deflate decoder's packed tables alike), so every layout accepts and
 * rejects exactly the same codes.
 */
struct CodeLengthHistogram
{
    static constexpr unsigned MAX_CODE_LENGTH = 15;  /* Deflate limit */

    explicit CodeLengthHistogram( VectorView<std::uint8_t> codeLengths ) noexcept
    {
        for ( const auto length : codeLengths ) {
            if ( length > MAX_CODE_LENGTH ) {
                tooLong = true;
                continue;
            }
            ++countPerLength[length];
            maxLength = length > maxLength ? length : maxLength;
        }
        codeCount = codeLengths.size() - countPerLength[0];
        countPerLength[0] = 0;
        /* Kraft inequality: a negative remainder means over-subscribed. The
         * remainder at the maximum length separates complete codes (0) from
         * incomplete ones — Deflate encoders only emit complete codes
         * (except the single-distance-code case), so the block finders
         * reject incomplete codes as "non-optimal". */
        std::int64_t available = 1;
        for ( unsigned length = 1; length <= maxLength; ++length ) {
            available = available * 2 - countPerLength[length];
            if ( available < 0 ) {
                break;
            }
        }
        kraftRemainder = available;
    }

    /** At least one codeword, none longer than 15 bits, not over-subscribed. */
    [[nodiscard]] bool
    isValid() const noexcept
    {
        return !tooLong && ( maxLength > 0 ) && ( kraftRemainder >= 0 );
    }

    [[nodiscard]] bool
    isComplete() const noexcept
    {
        return kraftRemainder == 0;
    }

    std::array<std::uint16_t, MAX_CODE_LENGTH + 1> countPerLength{};  /**< [0] stays 0 */
    unsigned maxLength{ 0 };
    std::size_t codeCount{ 0 };
    std::int64_t kraftRemainder{ 0 };
    bool tooLong{ false };
};

/**
 * Shared canonical-Huffman machinery (CRTP). Derived classes only decide the
 * lookup-table layout; code assignment, Kraft validation, and the decode()
 * result conventions live here so every decoder variant is interchangeable
 * in the benchmarks and in the Deflate decoder:
 *
 *   decode() >= 0 : decoded symbol
 *   DECODE_EOF    : the BitReader ran out of input before this symbol
 *   DECODE_INVALID: the peeked bits do not start a valid code
 *
 * Codes are stored bit-reversed because Deflate writes Huffman codes
 * MSB-first into an LSB-first bit stream, so an LSB-first reader sees the
 * reversed code — exactly the form a LUT indexed by peeked bits needs.
 */
template<typename Derived>
class HuffmanCodingBase
{
public:
    static constexpr int DECODE_EOF = -1;
    static constexpr int DECODE_INVALID = -2;

    static constexpr unsigned MAX_CODE_LENGTH = 15;  /* Deflate limit */

    struct CanonicalCode
    {
        std::uint16_t symbol{ 0 };
        std::uint16_t reversedCode{ 0 };
        std::uint8_t length{ 0 };
    };

    /**
     * Build decoding tables from per-symbol code lengths (length 0 = symbol
     * unused). Returns false and leaves the coding unusable for
     * over-subscribed length distributions; incomplete codes are accepted
     * (unmapped bit patterns decode to DECODE_INVALID), matching Deflate's
     * rules for distance codes.
     */
    [[nodiscard]] bool
    initializeFromLengths( VectorView<std::uint8_t> codeLengths )
    {
        const CodeLengthHistogram histogram( codeLengths );
        if ( !histogram.isValid() ) {
            return false;
        }
        m_maxLength = histogram.maxLength;
        m_kraftRemainder = histogram.kraftRemainder;
        const auto& countPerLength = histogram.countPerLength;

        /* Canonical first-code per length, then assign in symbol order. */
        std::array<std::uint16_t, MAX_CODE_LENGTH + 2> nextCode{};
        std::uint16_t code = 0;
        for ( unsigned length = 1; length <= m_maxLength; ++length ) {
            code = static_cast<std::uint16_t>( ( code + countPerLength[length - 1] ) << 1U );
            nextCode[length] = code;
        }

        m_codes.clear();
        m_codes.reserve( codeLengths.size() );
        for ( std::size_t symbol = 0; symbol < codeLengths.size(); ++symbol ) {
            const auto length = codeLengths[symbol];
            if ( length == 0 ) {
                continue;
            }
            const auto assigned = nextCode[length]++;
            m_codes.push_back( { static_cast<std::uint16_t>( symbol ),
                                 reverseBits( assigned, length ),
                                 length } );
        }

        return static_cast<Derived*>( this )->buildLookupTables();
    }

    [[nodiscard]] unsigned
    maxCodeLength() const noexcept
    {
        return m_maxLength;
    }

    /** Number of symbols with a non-zero code length. */
    [[nodiscard]] std::size_t
    codeCount() const noexcept
    {
        return m_codes.size();
    }

    /**
     * True when the code saturates the Kraft inequality — every bit pattern
     * decodes to a symbol. Only meaningful after initializeFromLengths()
     * returned true.
     */
    [[nodiscard]] bool
    isCompleteCode() const noexcept
    {
        return m_kraftRemainder == 0;
    }

protected:
    [[nodiscard]] static std::uint16_t
    reverseBits( std::uint16_t value, unsigned bitCount ) noexcept
    {
        std::uint16_t reversed = 0;
        for ( unsigned i = 0; i < bitCount; ++i ) {
            reversed = static_cast<std::uint16_t>( ( reversed << 1U ) | ( value & 1U ) );
            value >>= 1U;
        }
        return reversed;
    }

    std::vector<CanonicalCode> m_codes;
    unsigned m_maxLength{ 0 };
    std::int64_t m_kraftRemainder{ 0 };
};

}  // namespace rapidgzip
