#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "../bits/BitReader.hpp"
#include "../common/Util.hpp"
#include "../deflate/DynamicHeader.hpp"
#include "../deflate/definitions.hpp"
#include "BlockFinder.hpp"

namespace rapidgzip::blockfinder {

/**
 * pugz-style skip-table Dynamic block finder ("DBF skip-LUT" in paper
 * Table 2). A precomputed table over the next 13 peeked bits — BFINAL(1) +
 * BTYPE(2) + HLIT(5) + HDIST(5) — answers two questions in one load: is this
 * position a plausible header start, and if not, how many bits may be
 * skipped before a plausible start could possibly begin? The skip distance
 * is conservative (a suffix of the window whose known bits are consistent
 * stops the skip), so no real header is ever jumped over. Plausible
 * positions then pay for the full shared-parser verification.
 */
class DynamicBlockFinderSkipLUT
{
public:
    static constexpr unsigned WINDOW_BITS = 13;

    [[nodiscard]] std::size_t
    find( BufferView data, std::size_t fromBit ) const
    {
        const auto& skip = skipTable();
        BitReader reader( data.data(), data.size() );
        const auto sizeBits = reader.sizeInBits();
        deflate::DynamicHuffmanCodings codings;
        auto offset = fromBit;
        while ( offset + deflate::MIN_DYNAMIC_HEADER_BITS <= sizeBits ) {
            reader.seekAfterPeek( offset );
            const auto window = reader.peek( WINDOW_BITS );
            const auto skipBits = skip[window];
            if ( skipBits > 0 ) {
                offset += skipBits;
                continue;
            }
            reader.skip( 3 );
            if ( deflate::readDynamicCodings( reader, codings ) == Error::NONE ) {
                return offset;
            }
            ++offset;
        }
        return NOT_FOUND;
    }

private:
    /**
     * skipTable()[w] = number of bits to skip before the next position whose
     * *known* bits are still consistent with "BFINAL=0, BTYPE=10, HLIT<=29,
     * HDIST<=29"; 0 = this position itself is plausible. Positions whose
     * plausibility cannot be refuted from the remaining window bits stop the
     * skip — conservativeness over filter power.
     */
    [[nodiscard]] static const std::array<std::uint8_t, std::size_t( 1 ) << WINDOW_BITS>&
    skipTable()
    {
        static const auto table = [] {
            std::array<std::uint8_t, std::size_t( 1 ) << WINDOW_BITS> result{};
            for ( std::uint32_t window = 0; window < result.size(); ++window ) {
                std::uint8_t skip = 0;
                while ( skip < WINDOW_BITS ) {
                    if ( plausible( window >> skip, WINDOW_BITS - skip ) ) {
                        break;
                    }
                    ++skip;
                }
                result[window] = skip;
            }
            return result;
        }();
        return table;
    }

    /** Can @p availableBits known bits of @p window start a wanted header? */
    [[nodiscard]] static constexpr bool
    plausible( std::uint32_t window, unsigned availableBits ) noexcept
    {
        if ( ( availableBits >= 1 ) && ( ( window & 0b1U ) != 0 ) ) {
            return false;  /* BFINAL set */
        }
        if ( availableBits >= 3 ) {
            if ( ( ( window >> 1U ) & 0b11U ) != deflate::BLOCK_TYPE_DYNAMIC ) {
                return false;
            }
        } else if ( availableBits == 2 ) {
            /* Only BTYPE's low bit visible; dynamic needs it clear. */
            if ( ( ( window >> 1U ) & 0b1U ) != 0 ) {
                return false;
            }
        }
        if ( ( availableBits >= 8 ) && ( ( ( window >> 3U ) & 0b11111U ) > 29 ) ) {
            return false;  /* HLIT > 29 */
        }
        if ( ( availableBits >= 13 ) && ( ( ( window >> 8U ) & 0b11111U ) > 29 ) ) {
            return false;  /* HDIST > 29 */
        }
        return true;
    }
};

}  // namespace rapidgzip::blockfinder
