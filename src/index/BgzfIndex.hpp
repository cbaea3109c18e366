#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "../common/Util.hpp"
#include "../gzip/GzipHeader.hpp"
#include "../io/FileReader.hpp"
#include "GzipIndex.hpp"

namespace rapidgzip::index {

/**
 * BGZF (bgzip/htslib) support as a special case of the general index: every
 * BGZF block is a complete gzip member whose FEXTRA "BC" subfield states the
 * total block size, and whose ISIZE footer states its uncompressed size —
 * so a full random-access index can be built by scanning ~30 bytes per
 * 64 KiB block, with NO Deflate decoding at all. Checkpoints are
 * byte-aligned member starts with empty windows; member starts are grouped
 * so each chunk spans at least @p chunkSizeBytes of compressed data (one
 * checkpoint per tiny block would make chunks too small to amortize
 * dispatch). ParallelGzipReader passes plannedChunkBytes, which sizes the
 * chunks to its pool.
 *
 * Returns std::nullopt when the file is not BGZF: the scan requires every
 * member to carry a well-formed BC field and the member chain to end
 * exactly at the file end. A chance FEXTRA in ordinary gzip fails that
 * full-file validation, so false positives cannot reroute a normal stream.
 */
[[nodiscard]] inline std::optional<GzipIndex>
tryBuildBgzfIndex( const FileReader& file, std::size_t chunkSizeBytes )
{
    const auto fileSize = file.size();
    /* Smallest BGZF member: 18-byte header + 2-byte empty stored block +
     * 8-byte footer (the EOF block). */
    constexpr std::size_t MIN_BLOCK_SIZE = 28;
    constexpr std::size_t HEADER_PROBE = 18;
    if ( fileSize < MIN_BLOCK_SIZE ) {
        return std::nullopt;
    }

    GzipIndex index;
    index.compressedSizeBytes = fileSize;
    std::size_t offset = 0;
    std::size_t uncompressedOffset = 0;
    std::size_t lastCheckpointOffset = 0;
    bool first = true;

    while ( offset < fileSize ) {
        std::uint8_t header[HEADER_PROBE];
        if ( ( fileSize - offset < MIN_BLOCK_SIZE )
             || ( file.pread( header, sizeof( header ), offset ) != sizeof( header ) ) ) {
            return std::nullopt;
        }
        /* Fixed BGZF header prefix: gzip magic, Deflate, FLG == FEXTRA. */
        if ( ( header[0] != GZIP_MAGIC_1 ) || ( header[1] != GZIP_MAGIC_2 )
             || ( header[2] != GZIP_CM_DEFLATE ) || ( header[3] != gzipflag::FEXTRA ) ) {
            return std::nullopt;
        }
        const auto xlen = static_cast<std::size_t>( header[10] )
                          | ( static_cast<std::size_t>( header[11] ) << 8U );
        /* Walk the extra subfields for "BC" (length 2). bgzip writes exactly
         * one subfield, but the spec allows more. */
        std::vector<std::uint8_t> extra( xlen );
        if ( file.pread( extra.data(), extra.size(), offset + 12 ) != extra.size() ) {
            return std::nullopt;
        }
        std::size_t blockSize = 0;
        for ( std::size_t i = 0; i + 4 <= extra.size(); ) {
            const auto subfieldLength = static_cast<std::size_t>( extra[i + 2] )
                                        | ( static_cast<std::size_t>( extra[i + 3] ) << 8U );
            if ( ( extra[i] == 'B' ) && ( extra[i + 1] == 'C' ) && ( subfieldLength == 2 )
                 && ( i + 6 <= extra.size() ) ) {
                blockSize = ( static_cast<std::size_t>( extra[i + 4] )
                              | ( static_cast<std::size_t>( extra[i + 5] ) << 8U ) ) + 1;
                break;
            }
            i += 4 + subfieldLength;
        }
        if ( ( blockSize < MIN_BLOCK_SIZE ) || ( offset + blockSize > fileSize ) ) {
            return std::nullopt;
        }

        /* The member's Deflate data starts right after the extra field; its
         * ISIZE footer field closes the block. */
        const auto deflateStart = offset + 12 + xlen;
        std::uint8_t isizeBytes[4];
        if ( file.pread( isizeBytes, sizeof( isizeBytes ), offset + blockSize - 4 )
             != sizeof( isizeBytes ) ) {
            return std::nullopt;
        }
        const auto isize = static_cast<std::size_t>( isizeBytes[0] )
                           | ( static_cast<std::size_t>( isizeBytes[1] ) << 8U )
                           | ( static_cast<std::size_t>( isizeBytes[2] ) << 16U )
                           | ( static_cast<std::size_t>( isizeBytes[3] ) << 24U );

        if ( first || ( offset - lastCheckpointOffset >= chunkSizeBytes ) ) {
            index.checkpoints.push_back( { deflateStart * 8, uncompressedOffset } );
            lastCheckpointOffset = offset;
            first = false;
        }
        uncompressedOffset += isize;
        offset += blockSize;
    }

    index.uncompressedSizeBytes = uncompressedOffset;
    return index;
}

}  // namespace rapidgzip::index
