#pragma once

#include <cstddef>

#include "../bits/BitReader.hpp"
#include "../common/Util.hpp"
#include "../deflate/DynamicHeader.hpp"
#include "../deflate/definitions.hpp"
#include "BlockFinder.hpp"

namespace rapidgzip::blockfinder {

/**
 * "DBF custom deflate" in paper Table 2: the straightforward finder that
 * attempts a FULL Dynamic-header parse — including building both Huffman
 * tables — at every bit offset. It is the acceptance ground truth the
 * cheaper finders are measured against (and tested against for false
 * negatives); its cost is what the rapid finder's cascaded filters avoid.
 * Each accepted candidate builds the decoder's own packed tables, so the
 * cost is what a naive finder feeding the real decoder would pay.
 */
class DynamicBlockFinderNaive
{
public:
    [[nodiscard]] std::size_t
    find( BufferView data, std::size_t fromBit ) const
    {
        BitReader reader( data.data(), data.size() );
        const auto sizeBits = reader.sizeInBits();
        if ( sizeBits < deflate::MIN_DYNAMIC_HEADER_BITS ) {
            return NOT_FOUND;
        }
        deflate::DynamicHuffmanCodings codings;
        for ( auto offset = fromBit; offset + deflate::MIN_DYNAMIC_HEADER_BITS <= sizeBits;
              ++offset ) {
            reader.seekAfterPeek( offset );
            /* BFINAL == 0 and BTYPE == 10 (LSB-first: bit 1 clear, bit 2 set). */
            if ( ( reader.peek( 3 ) & 0b111U ) != 0b100U ) {
                continue;
            }
            reader.skip( 3 );
            if ( readDynamicCodings( reader, codings ) == Error::NONE ) {
                return offset;
            }
        }
        return NOT_FOUND;
    }
};

}  // namespace rapidgzip::blockfinder
