#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "HuffmanCodingBase.hpp"

namespace rapidgzip::huffman {

/**
 * libdeflate-style packed decode tables: one 32-bit word per slot, a main
 * table indexed by the low tableBits peeked bits, and subtables (reached
 * through a pointer entry) for longer codes. Each slot holds the caller's
 * per-symbol RESULT word plus the bit counts the decode loop needs:
 *
 *   bits  0-7   bits to consume: codeword length (relative to the subtable
 *               for subtable slots) plus the extra-bit count of the result
 *   bits  8-11  codeword length alone, the shift down to the extra bits
 *   bit  13     END_OF_BLOCK
 *   bit  14     SUBTABLE pointer: bits 16-31 = subtable start,
 *               bits 8-13 = subtable index bits, bits 0-7 = tableBits
 *   bit  15     EXCEPTIONAL: end of block, subtable pointer, or invalid
 *   bits 16-31  payload (literal byte, length or distance base, ...)
 *   bit  31     LITERAL (literal payloads use bits 16-23 only)
 *
 * An EXCEPTIONAL slot with neither flag is invalid: either a code for a
 * symbol the format forbids (codeword length in bits 8-11, so checked
 * decoding can still tell truncation from invalidity) or a bit pattern no
 * code matches (codeword length 0; only incomplete codes have those).
 */
inline constexpr std::uint32_t ENTRY_LITERAL = 0x8000'0000U;
inline constexpr std::uint32_t ENTRY_EXCEPTIONAL = 0x8000U;
inline constexpr std::uint32_t ENTRY_SUBTABLE = 0x4000U;
inline constexpr std::uint32_t ENTRY_END_OF_BLOCK = 0x2000U;

/** Per-symbol result word: @p payload in the high half, @p extraBits more
 * stream bits to consume (and extract) after the codeword. */
[[nodiscard]] constexpr std::uint32_t
makeResult( std::uint32_t payload, unsigned extraBits ) noexcept
{
    return ( payload << 16U ) | extraBits;
}

/** Codeword length of a resolved (non-pointer) slot, relative to its table. */
[[nodiscard]] constexpr unsigned
codewordLength( std::uint32_t entry ) noexcept
{
    return ( entry >> 8U ) & 0xFU;
}

/** The extra bits of a length/distance slot from the bit buffer as it was
 * BEFORE the slot's bits were consumed. */
[[nodiscard]] constexpr std::uint64_t
extraBitsValue( std::uint64_t savedBits, std::uint32_t entry ) noexcept
{
    return ( savedBits & ( ( std::uint64_t( 1 ) << static_cast<std::uint8_t>( entry ) ) - 1U ) )
           >> codewordLength( entry );
}

/** Index of a subtable slot for the bits that follow the main-table bits. */
[[nodiscard]] constexpr std::size_t
subtableIndex( std::uint32_t pointer, std::uint64_t bitsAfterMainTable ) noexcept
{
    return ( pointer >> 16U )
           + ( bitsAfterMainTable & ( ( std::uint64_t( 1 ) << ( ( pointer >> 8U ) & 0x3FU ) ) - 1U ) );
}

/**
 * Fill @p table for the code whose lengths @p histogram already accepted
 * (isValid()) and which is either complete or has exactly one codeword —
 * the only incomplete shape Deflate allows. Codes are sorted by length
 * with a counting sort; the main table grows from 2^shortest slots by
 * memcpy doubling as the length increases (so a complete code never pays a
 * zero-fill), and codes longer than @p tableBits go to subtables sized to
 * be completely filled. @p table must hold the format's worst case
 * ("enough" in zlib's terms); no heap allocation happens here.
 */
inline void
buildPackedDecodeTable( std::uint32_t* table,
                        unsigned tableBits,
                        VectorView<std::uint8_t> lengths,
                        const std::uint32_t* results,
                        const CodeLengthHistogram& histogram ) noexcept
{
    const auto makeEntry = [results] ( unsigned symbol, unsigned length ) {
        return results[symbol] + ( length << 8U ) + length;
    };
    const auto& countPerLength = histogram.countPerLength;

    if ( histogram.codeCount <= 1 ) {
        /* Empty or single-codeword code: every other pattern is invalid. The
         * one codeword is all zeros (canonical code 0). */
        const auto mainSize = std::size_t( 1 ) << tableBits;
        for ( std::size_t i = 0; i < mainSize; ++i ) {
            table[i] = ENTRY_EXCEPTIONAL;
        }
        if ( histogram.codeCount == 0 ) {
            return;
        }
        unsigned symbol = 0;
        while ( lengths[symbol] == 0 ) {
            ++symbol;
        }
        const auto length = lengths[symbol];
        if ( length <= tableBits ) {
            for ( std::size_t i = 0; i < mainSize; i += std::size_t( 1 ) << length ) {
                table[i] = makeEntry( symbol, length );
            }
            return;
        }
        const auto subtableBits = length - tableBits;
        table[0] = static_cast<std::uint32_t>( mainSize << 16U ) | ENTRY_EXCEPTIONAL
                   | ENTRY_SUBTABLE | ( subtableBits << 8U ) | tableBits;
        for ( std::size_t i = 0; i < ( std::size_t( 1 ) << subtableBits ); ++i ) {
            table[mainSize + i] = ENTRY_EXCEPTIONAL;
        }
        table[mainSize] = makeEntry( symbol, subtableBits );
        return;
    }

    /* Counting sort by (length, symbol): canonical codes are assigned in
     * exactly this order. */
    std::array<std::uint16_t, CodeLengthHistogram::MAX_CODE_LENGTH + 1> offsets{};
    for ( unsigned length = 1; length < CodeLengthHistogram::MAX_CODE_LENGTH; ++length ) {
        offsets[length + 1] = static_cast<std::uint16_t>( offsets[length] + countPerLength[length] );
    }
    std::array<std::uint16_t, 288> sorted;  /* largest Deflate alphabet */
    assert( lengths.size() <= sorted.size() );
    for ( std::size_t symbol = 0; symbol < lengths.size(); ++symbol ) {
        if ( lengths[symbol] != 0 ) {
            sorted[offsets[lengths[symbol]]++] = static_cast<std::uint16_t>( symbol );
        }
    }

    /* The codeword is kept bit-reversed (the form a table indexed by
     * LSB-first peeked bits needs). Incrementing a reversed codeword: set
     * its highest clear bit below 2^length and clear everything above. */
    const auto nextCodeword = [] ( unsigned codeword, unsigned allOnes ) {
        const auto bit = 1U << ( 31U - static_cast<unsigned>( __builtin_clz( codeword ^ allOnes ) ) );
        return ( codeword & ( bit - 1U ) ) | bit;
    };

    const auto* symbol = sorted.data();
    unsigned codeword = 0;
    unsigned length = 1;
    unsigned count = 0;
    while ( ( count = countPerLength[length] ) == 0 ) {
        ++length;
    }
    /* Short codes: stride fill expressed as doubling. At each length the
     * table holds 2^length slots; every codeword fills its one slot, then
     * the table is doubled by memcpy for the next length. */
    auto tableEnd = 1U << length;
    while ( length <= tableBits ) {
        do {
            table[codeword] = makeEntry( *symbol++, length );
            if ( codeword == tableEnd - 1 ) {  /* the last codeword: all ones */
                for ( ; length < tableBits; ++length ) {
                    std::memcpy( table + tableEnd, table, tableEnd * sizeof( *table ) );
                    tableEnd <<= 1U;
                }
                return;
            }
            codeword = nextCodeword( codeword, tableEnd - 1 );
        } while ( --count != 0 );

        do {
            if ( ++length <= tableBits ) {
                std::memcpy( table + tableEnd, table, tableEnd * sizeof( *table ) );
                tableEnd <<= 1U;
            }
        } while ( ( count = countPerLength[length] ) == 0 );
    }

    /* Long codes: one subtable per main-table prefix, sized so that the
     * codewords sharing the prefix fill it completely. */
    const auto mainMask = ( 1U << tableBits ) - 1U;
    tableEnd = 1U << tableBits;
    auto subtableStart = tableEnd;
    auto prefix = ~0U;
    while ( true ) {
        if ( ( codeword & mainMask ) != prefix ) {
            prefix = codeword & mainMask;
            subtableStart = tableEnd;
            auto subtableBits = length - tableBits;
            auto codespaceUsed = count;
            while ( codespaceUsed < ( 1U << subtableBits ) ) {
                ++subtableBits;
                codespaceUsed = ( codespaceUsed << 1U ) + countPerLength[tableBits + subtableBits];
            }
            tableEnd = subtableStart + ( 1U << subtableBits );
            table[prefix] = ( subtableStart << 16U ) | ENTRY_EXCEPTIONAL | ENTRY_SUBTABLE
                            | ( subtableBits << 8U ) | tableBits;
        }

        const auto entry = makeEntry( *symbol++, length - tableBits );
        const auto stride = 1U << ( length - tableBits );
        for ( auto i = subtableStart + ( codeword >> tableBits ); i < tableEnd; i += stride ) {
            table[i] = entry;
        }

        const auto allOnes = ( 1U << length ) - 1U;
        if ( codeword == allOnes ) {
            return;
        }
        codeword = nextCodeword( codeword, allOnes );
        --count;
        while ( count == 0 ) {
            count = countPerLength[++length];
        }
    }
}

}  // namespace rapidgzip::huffman
