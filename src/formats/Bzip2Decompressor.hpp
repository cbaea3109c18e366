#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../common/Error.hpp"
#include "../common/Util.hpp"
#include "../core/FrameParallelReader.hpp"
#include "../io/FileReader.hpp"
#include "../io/SharedFileReader.hpp"
#include "../telemetry/Registry.hpp"
#include "Decompressor.hpp"
#include "Format.hpp"
#include "VendorBzip2.hpp"

#if defined( RAPIDGZIP_HAVE_VENDOR_BZIP2 )

namespace rapidgzip::formats {

/**
 * bzip2 parallel reader. The format's gift to parallel decompression is
 * that every block is a self-contained BWT unit (no LZ window crosses
 * blocks) introduced by a 48-bit magic, 0x314159265359, at an ARBITRARY
 * bit offset; the stream footer magic is 0x177245385090. So the pipeline
 * is: one bit-granular scan for both magics (pure pattern matching, no
 * decoding — the bzip2 analogue of the paper's gzip block finder, but
 * exact instead of probabilistic), then every block decodes independently
 * on the chunk fetcher, wrapped as a synthetic single-block stream
 * ("BZh9" + the block's bits + footer + that block's own CRC read from
 * its header) so vendor libbz2 does the byte work and verifies the block
 * CRC as it would in a real stream.
 *
 * A chance 48-bit magic inside compressed data (~2^-48 per bit) would make
 * a synthetic block undecodable; any scan-path failure falls back to the
 * serial whole-stream vendor decode, which is authoritative. Each stream's
 * combined CRC (rotate-xor over its blocks' CRCs) is additionally checked
 * against the footer on every full decompress().
 */
class Bzip2Decompressor final : public Decompressor
{
public:
    static constexpr std::uint64_t BLOCK_MAGIC = 0x314159265359ULL;
    static constexpr std::uint64_t EOS_MAGIC = 0x177245385090ULL;
    static constexpr std::uint64_t MAGIC_MASK = 0xFFFFFFFFFFFFULL;  /* 48 bits */

    explicit Bzip2Decompressor( std::unique_ptr<FileReader> file,
                                ChunkFetcherConfiguration configuration = {} ) :
        m_file( ensureSharedFileReader( std::move( file ) ) ),
        m_configuration( configuration )
    {
        try {
            scanBlocks();
            buildParallelReader();
            m_parallelUsable = true;
        } catch ( const RapidgzipError& ) {
            /* Scan failure (exotic/corrupt layout): the serial path still
             * answers, and decompress() reports ITS verdict on the data. */
            m_parallelUsable = false;
        }
    }

    [[nodiscard]] Format
    format() const noexcept override
    {
        return Format::BZIP2;
    }

    [[nodiscard]] bool
    parallelizable() const noexcept override
    {
        return m_parallelUsable;
    }

    std::size_t
    decompress( const Sink& sink ) override
    {
        if ( m_parallelUsable ) {
            try {
                return m_parallel->decompress( sink ? sink : Sink{} );
            } catch ( const RapidgzipError& ) {
                /* False magic or damaged block: the serial decode decides
                 * whether the file itself is bad. */
                fallBackToSerial();
            }
        }
        return serialDecompress( sink );
    }

    [[nodiscard]] std::size_t
    size() override
    {
        if ( m_parallelUsable ) {
            try {
                return m_parallel->size();
            } catch ( const RapidgzipError& ) {
                fallBackToSerial();
            }
        }
        if ( !m_serialSizeKnown ) {
            m_serialSize = serialDecompress( {} );
            m_serialSizeKnown = true;
        }
        return m_serialSize;
    }

    [[nodiscard]] std::size_t
    readAt( std::size_t uncompressedOffset, std::uint8_t* buffer, std::size_t size ) override
    {
        if ( m_parallelUsable ) {
            try {
                return m_parallel->readAt( uncompressedOffset, buffer, size );
            } catch ( const RapidgzipError& ) {
                fallBackToSerial();
            }
        }
        return readRangeViaStreaming(
            [this] ( const Sink& sink ) { return serialDecompress( sink ); },
            uncompressedOffset, buffer, size );
    }

    [[nodiscard]] std::size_t
    readSpansAt( std::size_t uncompressedOffset,
                 std::size_t size,
                 std::vector<OwnedSpan>& spans ) override
    {
        const auto priorSpans = spans.size();
        if ( m_parallelUsable ) {
            try {
                return m_parallel->readSpansAt( uncompressedOffset, size, spans );
            } catch ( const RapidgzipError& ) {
                fallBackToSerial();
                spans.resize( priorSpans );  /* drop partial zero-copy progress */
            }
        }
        return Decompressor::readSpansAt( uncompressedOffset, size, spans );
    }

    [[nodiscard]] std::vector<SeekPoint>
    seekPoints() override
    {
        if ( !m_parallelUsable ) {
            return {};
        }
        std::vector<SeekPoint> result;
        for ( const auto& [bits, offset] : m_parallel->chunkSeekPoints() ) {
            result.push_back( { bits, offset } );
        }
        return result;
    }

    [[nodiscard]] bool
    importSeekPoints( const std::vector<SeekPoint>& seekPoints,
                      std::size_t uncompressedSizeBytes ) override
    {
        if ( !m_parallelUsable ) {
            return false;
        }
        std::vector<std::pair<std::size_t, std::size_t> > points;
        points.reserve( seekPoints.size() );
        for ( const auto& point : seekPoints ) {
            points.emplace_back( point.compressedOffsetBits, point.uncompressedOffset );
        }
        return m_parallel->adoptChunkOffsets( points, uncompressedSizeBytes );
    }

    [[nodiscard]] std::size_t
    blockCount() const noexcept
    {
        return m_blocks.size();
    }

    /**
     * Build the synthetic single-block stream for a block's bit range:
     * "BZh9" (level 9 accepts any block size), the block's bits shifted to
     * start right after the 32-bit header, the 48-bit end-of-stream magic,
     * and the stream CRC — which for a single-block stream equals the
     * block CRC, read from the 32 bits after the block magic. Exposed for
     * the differential tests.
     */
    [[nodiscard]] static std::vector<std::uint8_t>
    buildSingleBlockStream( const FileReader& file,
                            std::size_t blockBeginBits,
                            std::size_t blockEndBits )
    {
        if ( blockEndBits <= blockBeginBits + 48 + 32 ) {
            throw RapidgzipError( "bzip2 block bit range too small" );
        }
        const auto beginByte = blockBeginBits / 8;
        const auto endByte = ceilDiv<std::size_t>( blockEndBits, 8 );
        std::vector<std::uint8_t> raw( endByte - beginByte );
        preadExactly( file, raw.data(), raw.size(), beginByte );

        MsbBitReader reader( raw, blockBeginBits - beginByte * 8 );
        const auto totalBits = blockEndBits - blockBeginBits;

        const auto magic = reader.peek48();
        if ( magic != BLOCK_MAGIC ) {
            throw RapidgzipError( "bzip2 block does not start with the block magic" );
        }
        /* The 32 bits after the magic are the block's own CRC — for a
         * single-block stream the combined stream CRC equals it. */
        MsbBitReader crcReader( raw, blockBeginBits - beginByte * 8 + 48 );
        const auto blockCrc = static_cast<std::uint32_t>( crcReader.read( 32 ) );

        MsbBitWriter writer;
        writer.bytes().reserve( raw.size() + 16 );
        writer.bytes() = { 'B', 'Z', 'h', '9' };

        auto remaining = totalBits;
        while ( remaining > 0 ) {
            const auto take = std::min<std::size_t>( remaining, 32 );
            writer.put( reader.read( take ), take );
            remaining -= take;
        }

        writer.put( EOS_MAGIC, 48 );
        writer.put( blockCrc, 32 );
        writer.flush();
        return std::move( writer.bytes() );
    }

private:
    /** A walk over the parallel chunks threw: the serial decode answers
     * from now on, and the switch is counted. */
    void
    fallBackToSerial()
    {
        m_parallelUsable = false;
        RAPIDGZIP_TELEMETRY_COUNT_LABELED(
            "rapidgzip_fallback_total", "Reads that left their parallel path, by path and reason.",
            "path=\"bzip2_parallel\",reason=\"chunk_walk_error\"", 1 );
    }

    /** MSB-first bit reader over a byte buffer (bzip2's bit order). */
    class MsbBitReader
    {
    public:
        MsbBitReader( const std::vector<std::uint8_t>& data, std::size_t startBit ) :
            m_data( data ),
            m_position( startBit )
        {}

        [[nodiscard]] std::uint64_t
        read( std::size_t count )
        {
            std::uint64_t result = 0;
            for ( std::size_t i = 0; i < count; ++i ) {
                const auto byte = m_position / 8;
                const auto bit = 7 - ( m_position % 8 );
                const auto value = byte < m_data.size()
                                   ? ( m_data[byte] >> bit ) & 1U
                                   : 0U;  /* zero-padded tail */
                result = ( result << 1U ) | value;
                ++m_position;
            }
            return result;
        }

        [[nodiscard]] std::uint64_t
        peek48()
        {
            const auto saved = m_position;
            const auto result = read( 48 );
            m_position = saved;
            return result;
        }

    private:
        const std::vector<std::uint8_t>& m_data;
        std::size_t m_position;
    };

    /** MSB-first bit writer (bzip2's bit order), zero-padding the tail. */
    class MsbBitWriter
    {
    public:
        void
        put( std::uint64_t value, std::size_t count )
        {
            for ( std::size_t i = count; i > 0; --i ) {
                const auto bit = ( value >> ( i - 1 ) ) & 1U;
                if ( m_fill == 0 ) {
                    m_bytes.push_back( 0 );
                    m_fill = 8;
                }
                --m_fill;
                m_bytes.back() = static_cast<std::uint8_t>(
                    m_bytes.back() | ( bit << m_fill ) );
            }
        }

        void
        flush() noexcept
        {
            m_fill = 0;
        }

        [[nodiscard]] std::vector<std::uint8_t>&
        bytes() noexcept
        {
            return m_bytes;
        }

    private:
        std::vector<std::uint8_t> m_bytes;
        std::size_t m_fill{ 0 };
    };

    struct Block
    {
        std::size_t beginBits{ 0 };  /**< absolute bit offset of the block magic */
        std::size_t endBits{ 0 };    /**< next block/EOS magic */
        std::uint32_t crc{ 0 };      /**< from the 32 bits after the magic */
    };

    /**
     * One linear pass over the file sliding a 64-bit register across every
     * bit position, recording block and end-of-stream magic offsets. Also
     * verifies stream structure: every EOS is followed by its 32-bit
     * combined CRC, then either EOF or a new "BZh" stream header
     * (byte-aligned, possibly after padding bits of the previous stream).
     */
    void
    scanBlocks()
    {
        const auto fileSize = m_file->size();
        if ( fileSize < 4 + 6 + 4 ) {
            throw RapidgzipError( "bzip2 file too small" );
        }
        std::uint8_t header[4];
        preadExactly( *m_file, header, sizeof( header ), 0 );
        if ( ( header[0] != 'B' ) || ( header[1] != 'Z' ) || ( header[2] != 'h' )
             || ( header[3] < '1' ) || ( header[3] > '9' ) ) {
            throw RapidgzipError( "Not a bzip2 stream" );
        }

        /* Buffered scan: 4 MiB windows with a 64-bit carry register. */
        constexpr std::size_t WINDOW = 4 * MiB;
        std::vector<std::uint8_t> buffer( std::min( WINDOW, fileSize ) );
        std::uint64_t reg = 0;
        std::vector<std::pair<std::size_t, bool> > magics;  /* (beginBit, isEos) */

        std::size_t absoluteBit = 0;
        for ( std::size_t offset = 0; offset < fileSize; offset += buffer.size() ) {
            const auto toRead = std::min( buffer.size(), fileSize - offset );
            preadExactly( *m_file, buffer.data(), toRead, offset );
            for ( std::size_t i = 0; i < toRead; ++i ) {
                const auto byte = buffer[i];
                for ( int bit = 7; bit >= 0; --bit ) {
                    reg = ( reg << 1U ) | ( ( byte >> bit ) & 1U );
                    ++absoluteBit;
                    if ( absoluteBit < 48 ) {
                        continue;
                    }
                    const auto window = reg & MAGIC_MASK;
                    if ( window == BLOCK_MAGIC ) {
                        magics.emplace_back( absoluteBit - 48, false );
                    } else if ( window == EOS_MAGIC ) {
                        magics.emplace_back( absoluteBit - 48, true );
                    }
                }
            }
        }

        /* Segment into blocks; each block ends where the next magic (block
         * or EOS) begins. Streams contribute their EOS CRC and footer
         * geometry for the combined-CRC check. */
        m_blocks.clear();
        m_streams.clear();
        StreamInfo current;
        current.firstBlock = 0;
        bool inStream = true;
        for ( std::size_t i = 0; i < magics.size(); ++i ) {
            const auto [bit, isEos] = magics[i];
            if ( !inStream ) {
                /* First block magic of a follow-up concatenated stream. */
                current = StreamInfo{};
                current.firstBlock = m_blocks.size();
                inStream = true;
            }
            if ( isEos ) {
                current.blockEnd = m_blocks.size();
                current.eosBits = bit;
                const auto window = readBitsWindow( bit + 48, 32 );
                MsbBitReader crcReader( window, ( bit + 48 ) % 8 );
                current.streamCrc = static_cast<std::uint32_t>( crcReader.read( 32 ) );
                m_streams.push_back( current );
                inStream = false;
                continue;
            }
            Block block;
            block.beginBits = bit;
            block.endBits = i + 1 < magics.size() ? magics[i + 1].first : 0;
            const auto window = readBitsWindow( bit + 48, 32 );
            MsbBitReader crcReader( window, ( bit + 48 ) % 8 );
            block.crc = static_cast<std::uint32_t>( crcReader.read( 32 ) );
            m_blocks.push_back( block );
        }
        if ( inStream || m_blocks.empty() ) {
            throw RapidgzipError( "bzip2 scan found no complete stream" );
        }
        for ( const auto& block : m_blocks ) {
            if ( block.endBits <= block.beginBits ) {
                throw RapidgzipError( "bzip2 scan produced inconsistent block ranges" );
            }
        }

        /* Combined-CRC cross check, from header data alone: each stream's
         * footer CRC must equal rotate-left-xor over its blocks' CRCs. A
         * chance false block magic inserts a bogus CRC and fails this, so
         * the scan is validated BEFORE any parallel decode is attempted. */
        for ( const auto& stream : m_streams ) {
            std::uint32_t combined = 0;
            for ( auto i = stream.firstBlock; i < stream.blockEnd; ++i ) {
                combined = ( ( combined << 1U ) | ( combined >> 31U ) ) ^ m_blocks[i].crc;
            }
            if ( combined != stream.streamCrc ) {
                throw RapidgzipError( "bzip2 combined stream CRC does not match its blocks — "
                                      "false magic or damaged stream" );
            }
        }
    }

    /** Bytes covering [startBit, startBit + count) for a bit reader whose
     * start offset is startBit % 8. */
    [[nodiscard]] std::vector<std::uint8_t>
    readBitsWindow( std::size_t startBit, std::size_t count ) const
    {
        const auto beginByte = startBit / 8;
        const auto endByte = std::min( ceilDiv<std::size_t>( startBit + count, 8 ),
                                       m_file->size() );
        std::vector<std::uint8_t> result( endByte - beginByte );
        preadExactly( *m_file, result.data(), result.size(), beginByte );
        return result;
    }

    void
    buildParallelReader()
    {
        std::vector<CompressedFrame> units;
        units.reserve( m_blocks.size() );
        for ( const auto& block : m_blocks ) {
            CompressedFrame unit;
            unit.compressedBeginBits = block.beginBits;
            unit.compressedEndBits = block.endBits;
            units.push_back( unit );
        }
        auto decoder = [] ( const FileReader& file, const CompressedFrame& unit,
                            std::size_t /* index */, std::vector<std::uint8_t>& out ) {
            const auto synthetic = buildSingleBlockStream(
                file, unit.compressedBeginBits, unit.compressedEndBits );
            const auto decoded = vendorBzip2DecompressAll(
                { synthetic.data(), synthetic.size() } );
            out.insert( out.end(), decoded.begin(), decoded.end() );
        };
        m_parallel = std::make_unique<FrameParallelReader>(
            std::shared_ptr<const FileReader>( m_file->clone().release() ),
            std::move( units ), std::move( decoder ), m_configuration );
    }

    std::size_t
    serialDecompress( const Sink& sink )
    {
        std::vector<std::uint8_t> compressed( m_file->size() );
        preadExactly( *m_file, compressed.data(), compressed.size(), 0 );
        const auto output = vendorBzip2DecompressAll( { compressed.data(), compressed.size() } );
        if ( sink ) {
            sink( { output.data(), output.size() } );
        }
        return output.size();
    }

    struct StreamInfo
    {
        std::size_t firstBlock{ 0 };
        std::size_t blockEnd{ 0 };
        std::size_t eosBits{ 0 };
        std::uint32_t streamCrc{ 0 };
    };

    std::unique_ptr<SharedFileReader> m_file;
    ChunkFetcherConfiguration m_configuration;

    std::vector<Block> m_blocks;
    std::vector<StreamInfo> m_streams;
    bool m_parallelUsable{ false };
    std::unique_ptr<FrameParallelReader> m_parallel;

    std::size_t m_serialSize{ 0 };
    bool m_serialSizeKnown{ false };
};

}  // namespace rapidgzip::formats

#endif  /* RAPIDGZIP_HAVE_VENDOR_BZIP2 */
