#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "../common/Error.hpp"
#include "../common/Util.hpp"
#include "../io/FileReader.hpp"
#include "ChunkFetcher.hpp"
#include "DeflateChunks.hpp"

namespace rapidgzip {

/**
 * A compressed unit that decodes INDEPENDENTLY of everything around it:
 * a zstd frame, an lz4 independent block, a bzip2 block, a BGZF member.
 * Offsets are bit-granular because bzip2 blocks start at arbitrary bit
 * positions; byte-aligned formats use multiples of 8.
 */
struct CompressedFrame
{
    std::size_t compressedBeginBits{ 0 };
    std::size_t compressedEndBits{ 0 };
    /** Uncompressed size when the container records it (zstd seek table /
     * frame headers); 0 = unknown until decoded. */
    std::size_t uncompressedSize{ 0 };
};

/**
 * Format-agnostic chunked parallel decompression over a table of
 * independent frames — the piece that makes ChunkFetcher's cache/prefetch
 * machinery serve EVERY backend, not just gzip. The gzip-specific
 * ParallelGzipReader keeps its own chunk geometry (block finding, marker
 * decode, window stitching: gzip frames are NOT independent); backends whose
 * container gives real independence (zstd seekable frames, lz4 independent
 * blocks, bzip2 blocks) hand this class their frame table plus a per-frame
 * decoder, and get the same adaptive prefetching, bounded cache, chunk walk
 * and O(1)-per-chunk random access the paper builds for gzip.
 *
 * Frames are grouped into chunks of up to plannedChunkBytes (about two
 * per worker, at most the configured chunk size; a single larger frame
 * becomes its own chunk) so per-task overhead stays amortized for
 * small-frame formats (a bzip2 -1 block is ~100 KiB compressed). Thread
 * model matches ChunkFetcher: one consumer thread; decoding parallelizes
 * underneath.
 */
class FrameParallelReader
{
public:
    /** Decode ONE frame, appending its uncompressed bytes to @p output.
     * @p frameIndex is the frame's position in the table, which is how
     * backends look up per-frame metadata beyond the generic offsets
     * (lz4 uncompressed-block flags, bzip2 block CRCs). Runs concurrently
     * on pool workers — must be const-thread-safe. */
    using FrameDecoder =
        std::function<void( const FileReader&, const CompressedFrame&, std::size_t frameIndex,
                            std::vector<std::uint8_t>& output )>;

    FrameParallelReader( std::shared_ptr<const FileReader> file,
                         std::vector<CompressedFrame> frames,
                         FrameDecoder frameDecoder,
                         const ChunkFetcherConfiguration& configuration ) :
        m_file( std::move( file ) ),
        m_frames( std::make_shared<const std::vector<CompressedFrame> >( std::move( frames ) ) ),
        m_frameDecoder( std::move( frameDecoder ) ),
        m_chunkToFrames( groupFramesIntoChunks(
            *m_frames, plannedChunkBytes( m_file->size(), configuration,
                                          RESTART_POINT_CHUNK_FLOOR ) ) ),
        m_configuration( configuration )
    {
        buildFetcher();
    }

    [[nodiscard]] std::size_t
    frameCount() const noexcept
    {
        return m_frames->size();
    }

    [[nodiscard]] const std::vector<CompressedFrame>&
    frames() const noexcept
    {
        return *m_frames;
    }

    /**
     * Decompress everything in order, streaming each chunk through @p sink.
     * Returns the total uncompressed size. The traversal populates the
     * chunk offset table as a byproduct, so later readAt() calls are
     * chunk-granular random access.
     */
    [[nodiscard]] std::size_t
    decompress( const std::function<void( BufferView )>& sink )
    {
        std::vector<std::size_t> sizes( m_chunkToFrames.size() );
        std::size_t total = 0;
        for ( std::size_t i = 0; i < m_chunkToFrames.size(); ++i ) {
            const auto chunk = m_fetcher->get( i, ChunkFetcher::Access::WHOLE_STREAM );
            sizes[i] = chunk->data.size();
            total += chunk->data.size();
            if ( sink ) {
                sink( { chunk->data.data(), chunk->data.size() } );
            }
        }
        m_uncompressedOffsets = chunkOffsets( sizes );
        return total;
    }

    /** Total uncompressed size; uses recorded frame sizes when the whole
     * table has them, otherwise decodes once (cached) to measure. */
    [[nodiscard]] std::size_t
    size()
    {
        ensureOffsetsKnown();
        return m_uncompressedOffsets.back();
    }

    /** Random access read of up to @p size bytes at @p offset; decodes only
     * the chunks the range touches. Returns bytes read (short at EOF). */
    [[nodiscard]] std::size_t
    readAt( std::size_t offset, std::uint8_t* buffer, std::size_t size )
    {
        ensureOffsetsKnown();
        return walkChunks( *m_fetcher, m_uncompressedOffsets, offset, size,
                           [&buffer] ( const ChunkFetcher::ChunkDataPtr& chunk,
                                       std::size_t offsetInChunk, std::size_t take ) {
                               std::memcpy( buffer, chunk->data.data() + offsetInChunk, take );
                               buffer += take;
                           } );
    }

    /** Zero-copy variant of readAt: lends refcounted spans straight out of
     * the decoded chunks instead of copying. Each span holds a reference to
     * its whole chunk, so the bytes outlive any cache eviction for as long
     * as the caller keeps the span. Returns bytes appended (short at EOF). */
    [[nodiscard]] std::size_t
    readSpansAt( std::size_t offset, std::size_t size, std::vector<OwnedSpan>& spans )
    {
        ensureOffsetsKnown();
        return walkChunks( *m_fetcher, m_uncompressedOffsets, offset, size,
                           [&spans] ( const ChunkFetcher::ChunkDataPtr& chunk,
                                      std::size_t offsetInChunk, std::size_t take ) {
                               spans.push_back( lendChunkSpan( chunk, offsetInChunk, take ) );
                           } );
    }

    /** Chunk-granular seek points: (compressed bit offset, uncompressed
     * offset) of every chunk start. */
    [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t> >
    chunkSeekPoints()
    {
        ensureOffsetsKnown();
        std::vector<std::pair<std::size_t, std::size_t> > result;
        result.reserve( m_chunkToFrames.size() );
        for ( std::size_t i = 0; i < m_chunkToFrames.size(); ++i ) {
            const auto firstFrame = m_chunkToFrames[i].first;
            result.emplace_back( ( *m_frames )[firstFrame].compressedBeginBits,
                                 m_uncompressedOffsets[i] );
        }
        return result;
    }

    [[nodiscard]] const FetcherStatistics&
    statistics() const noexcept
    {
        return m_fetcher->statistics();
    }

    /**
     * Adopt chunk offsets from a previously exported index (the sidecar
     * fast path): one (compressed bit offset, uncompressed offset) per
     * chunk, as chunkSeekPoints() returned them — whatever parallelism or
     * configuration grouped the frames then. Every compressed offset must be
     * the start of a frame in the freshly scanned table (the geometry scan
     * is pure header arithmetic and always runs; what adoption skips is the
     * MEASURING decode sweep unsized formats pay in ensureOffsetsKnown), the
     * first the first frame's. The reader then takes the points as its
     * chunks, the way gzip's importIndex takes its checkpoints. Returns false
     * — leaving the reader untouched — when the geometry disagrees (stale
     * sidecar) or the offsets contradict recorded frame sizes.
     */
    [[nodiscard]] bool
    adoptChunkOffsets( const std::vector<std::pair<std::size_t, std::size_t> >& seekPoints,
                       std::size_t uncompressedSize )
    {
        if ( !m_uncompressedOffsets.empty() ) {
            return true;  /* nothing left to save */
        }
        if ( seekPoints.empty() != m_frames->empty() ) {
            return false;
        }
        std::vector<std::pair<std::size_t, std::size_t> > chunkToFrames;
        std::size_t frame = 0;
        for ( std::size_t i = 0; i < seekPoints.size(); ++i ) {
            while ( ( frame < m_frames->size() )
                    && ( ( *m_frames )[frame].compressedBeginBits < seekPoints[i].first ) ) {
                ++frame;
            }
            if ( ( frame >= m_frames->size() )
                 || ( ( *m_frames )[frame].compressedBeginBits != seekPoints[i].first )
                 || ( ( i == 0 ) && ( ( frame != 0 ) || ( seekPoints[i].second != 0 ) ) )
                 || ( ( i > 0 ) && ( seekPoints[i].second < seekPoints[i - 1].second ) ) ) {
                return false;
            }
            if ( i > 0 ) {
                chunkToFrames.back().second = frame;
            }
            chunkToFrames.emplace_back( frame, m_frames->size() );
            ++frame;
        }
        if ( !seekPoints.empty() && ( uncompressedSize < seekPoints.back().second ) ) {
            return false;
        }

        std::vector<std::size_t> sizes( seekPoints.size() );
        for ( std::size_t i = 0; i < seekPoints.size(); ++i ) {
            const auto next = i + 1 < seekPoints.size() ? seekPoints[i + 1].second
                                                        : uncompressedSize;
            sizes[i] = next - seekPoints[i].second;
            /* Recorded frame sizes (zstd) must agree with the sidecar. */
            std::size_t recorded = 0;
            bool allRecorded = true;
            for ( auto f = chunkToFrames[i].first; f < chunkToFrames[i].second; ++f ) {
                recorded += ( *m_frames )[f].uncompressedSize;
                allRecorded = allRecorded && ( ( *m_frames )[f].uncompressedSize > 0 );
            }
            if ( allRecorded && ( recorded != sizes[i] ) ) {
                return false;
            }
        }
        m_chunkToFrames = std::move( chunkToFrames );
        buildFetcher();
        m_uncompressedOffsets = chunkOffsets( sizes );
        return true;
    }

private:
    /** (Re)build the fetcher over the current frame grouping. */
    void
    buildFetcher()
    {
        auto decoder = [frames = m_frames, chunks = m_chunkToFrames, decodeFrame = m_frameDecoder]
                       ( const FileReader& reader, std::size_t chunkIndex ) -> DecodedChunk {
            DecodedChunk chunk;
            const auto [firstFrame, frameEnd] = chunks[chunkIndex];
            {
                telemetry::Span decodeSpan{ "pipeline", "frame.decode" };
                for ( auto i = firstFrame; i < frameEnd; ++i ) {
                    decodeFrame( reader, ( *frames )[i], i, chunk.data );
                }
                RAPIDGZIP_TELEMETRY_COUNT( "rapidgzip_frames_decoded_total",
                                           "Compressed frames decoded by frame-parallel readers.",
                                           frameEnd - firstFrame );
            }
            chunk.reachedStreamEnd = frameEnd == frames->size();
            return chunk;
        };
        std::vector<std::size_t> startBits;
        startBits.reserve( m_chunkToFrames.size() );
        for ( const auto& [firstFrame, frameEnd] : m_chunkToFrames ) {
            startBits.push_back( ( *m_frames )[firstFrame].compressedBeginBits );
        }
        m_fetcher = std::make_unique<ChunkFetcher>( m_file, startBits, std::move( decoder ),
                                                    m_configuration );
    }

    /** [first, end) frame range per chunk. Greedy: frames are admitted
     * while the chunk stays within @p chunkBytes, so chunks span at MOST
     * that much compressed input — except a single frame larger than the
     * budget, which becomes its own chunk. */
    [[nodiscard]] static std::vector<std::pair<std::size_t, std::size_t> >
    groupFramesIntoChunks( const std::vector<CompressedFrame>& frames, std::size_t chunkBytes )
    {
        std::vector<std::pair<std::size_t, std::size_t> > result;
        const auto chunkBits = std::max<std::size_t>( chunkBytes, 64 * KiB ) * 8;
        std::size_t begin = 0;
        while ( begin < frames.size() ) {
            auto end = begin;
            const auto chunkStartBits = frames[begin].compressedBeginBits;
            while ( ( end < frames.size() )
                    && ( ( end == begin )
                         || ( frames[end].compressedEndBits - chunkStartBits <= chunkBits ) ) ) {
                ++end;
            }
            result.emplace_back( begin, end );
            begin = end;
        }
        return result;
    }

    void
    ensureOffsetsKnown()
    {
        if ( !m_uncompressedOffsets.empty() ) {
            return;
        }
        /* A fully-sized frame table (zstd seek table / frame headers) gives
         * the offsets for free — no decoding for pure random access. */
        const bool allSized = !m_frames->empty()
                              && std::all_of( m_frames->begin(), m_frames->end(),
                                              [] ( const CompressedFrame& frame ) {
                                                  return frame.uncompressedSize > 0;
                                              } );
        if ( allSized ) {
            std::vector<std::size_t> sizes( m_chunkToFrames.size(), 0 );
            for ( std::size_t i = 0; i < m_chunkToFrames.size(); ++i ) {
                for ( auto f = m_chunkToFrames[i].first; f < m_chunkToFrames[i].second; ++f ) {
                    sizes[i] += ( *m_frames )[f].uncompressedSize;
                }
            }
            m_uncompressedOffsets = chunkOffsets( sizes );
            return;
        }
        /* Unknown sizes (lz4 blocks, bzip2 blocks): one measuring sweep.
         * Decodes go through the fetcher's cache, so the work feeds any
         * subsequent reads instead of being thrown away. */
        (void)decompress( {} );
    }

    std::shared_ptr<const FileReader> m_file;
    std::shared_ptr<const std::vector<CompressedFrame> > m_frames;
    FrameDecoder m_frameDecoder;
    std::vector<std::pair<std::size_t, std::size_t> > m_chunkToFrames;
    ChunkFetcherConfiguration m_configuration;
    std::unique_ptr<ChunkFetcher> m_fetcher;

    std::vector<std::size_t> m_uncompressedOffsets;  /**< chunks + 1 once known, else empty */
};

}  // namespace rapidgzip
