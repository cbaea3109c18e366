#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "../common/Error.hpp"
#include "../common/ThreadPool.hpp"
#include "../common/Util.hpp"
#include "../failsafe/FaultInjection.hpp"
#include "../io/FileReader.hpp"
#include "../telemetry/Registry.hpp"
#include "../telemetry/Trace.hpp"
#include "ChunkCache.hpp"
#include "DeflateChunks.hpp"

namespace rapidgzip {

/**
 * Configuration for the parallel chunk fetcher (paper §3.2). Its prefetch
 * policy is the paper's adaptive one: start shallow and double the depth
 * for every consecutive sequential access — cheap for random access, full
 * depth for linear scans. Passes that read every chunk in order ask for
 * full depth from their first access (ChunkFetcher::Access::WHOLE_STREAM).
 */
struct ChunkFetcherConfiguration
{
    std::size_t parallelism{ std::max<std::size_t>( 1, std::thread::hardware_concurrency() ) };
    std::size_t chunkSizeBytes{ 4 * MiB };
    /** Decoded chunks kept in the cache; 0 = derive from parallelism. */
    std::size_t cacheChunkCount{ 0 };
    /**
     * Minimum uncompressed distance between checkpoints the two-stage sweep
     * harvests into the seek index (member starts are always kept); 0 keeps
     * every chunk boundary. Larger spacings shrink the serialized index
     * (fewer 32 KiB windows) at the price of longer decode spans per seek —
     * bench/table4_formats.cpp reports the trade-off.
     */
    std::size_t checkpointSpacingBytes{ 0 };
    /**
     * Optional process-wide cache tier (serve daemon). When set, decodes
     * run through ChunkCache::getOrDecode — concurrent requests for the
     * same cold chunk decode once — and the per-reader map only bridges a
     * decode to its first consumption: repeat accesses are served by the
     * shared tier so chunk residency is accounted, bounded, and evicted in
     * one place. When unset (the default), behavior is exactly the classic
     * per-reader cache.
     */
    std::shared_ptr<ChunkCache> sharedCache{};
    /**
     * Folded into every shared-cache key; must uniquely identify the
     * compressed archive (e.g. hash of path + size + mtime). Readers of the
     * same archive with the same chunking share entries; anything else can
     * never collide. Ignored without @ref sharedCache.
     */
    std::uint64_t cacheIdentity{ 0 };
    /**
     * Transient-failure retries per chunk decode (beyond the first attempt)
     * before the failure propagates to consumers. Covers FileIoError,
     * bad_alloc, and injected faults; each retry backs off exponentially.
     * A failure that survives the budget is permanent for that get() — the
     * poisoned future is evicted so a later access re-decodes from scratch.
     */
    unsigned decodeRetryCount{ 2 };
};

/** plannedChunkBytes floor where restart points are free (full-flush gzip,
 * BGZF, zstd/lz4/bzip2 frames): only per-chunk overhead limits them. */
constexpr std::size_t RESTART_POINT_CHUNK_FLOOR = 64 * KiB;
/** plannedChunkBytes floor for the two-stage sweep over plain gzip: every
 * chunk but the first pays a block-finder search (about 10 MB/s, so
 * milliseconds per chunk), which smaller chunks no longer amortize. */
constexpr std::size_t SWEEP_CHUNK_FLOOR = 1 * MiB;

/**
 * Compressed bytes per chunk: about 2P chunks per file — two per worker, so
 * one slow chunk does not leave the pool idle — and never more than the
 * configured chunkSizeBytes, nor less than @p floorBytes
 * (RESTART_POINT_CHUNK_FLOOR or SWEEP_CHUNK_FLOOR). Files larger than
 * 2P x chunkSizeBytes keep chunkSizeBytes, and a chunkSizeBytes at or below
 * the floor is kept exactly.
 */
[[nodiscard]] inline std::size_t
plannedChunkBytes( std::size_t compressedBytes,
                   const ChunkFetcherConfiguration& configuration,
                   std::size_t floorBytes )
{
    const auto chunks = 2 * std::max<std::size_t>( 1, configuration.parallelism );
    const auto perChunk = compressedBytes / chunks + ( compressedBytes % chunks != 0 ? 1 : 0 );
    return std::min( configuration.chunkSizeBytes, std::max( perChunk, floorBytes ) );
}

struct FetcherStatistics
{
    std::size_t prefetchDispatched{ 0 };  /**< speculative chunk decodes submitted */
    std::size_t prefetchHits{ 0 };        /**< accesses served by a speculative decode */
    std::size_t onDemandDecodes{ 0 };     /**< accesses that had to decode synchronously */
    std::size_t cacheHits{ 0 };           /**< repeat accesses served from a cache tier */
    std::size_t evictions{ 0 };           /**< ready chunks dropped by the per-reader LRU */
    std::size_t prefetchWasted{ 0 };      /**< speculative decodes evicted before any consumer */
};

/**
 * Decodes chunks on a thread pool, caches the results, and prefetches ahead
 * of the consumer. What a chunk index means in compressed bytes is known
 * only to the decoder callback: a checkpoint span of a gzip stream, a group
 * of independent frames. All public methods are thread-compatible with the
 * single-owner usage pattern of the chunked readers (one consumer thread;
 * decoding is what parallelizes).
 */
class ChunkFetcher
{
public:
    using ChunkDataPtr = std::shared_ptr<const DecodedChunk>;
    /** Decodes chunk @p index of the stream; must be const-thread-safe (it
     * runs concurrently on the pool workers). */
    using ChunkDecoder = std::function<DecodedChunk( const FileReader&, std::size_t index )>;

    /** How get() prefetches: ramping up with the sequential streak, or at
     * full depth from the first access for a pass that reads every chunk in
     * order. */
    enum class Access
    {
        ADAPTIVE,
        WHOLE_STREAM,
    };

    /** @p decoder owns the mapping from chunk index to compressed bytes;
     * @p chunkStartBits (one compressed bit offset per chunk) is the
     * geometry the shared-cache key is derived from. */
    ChunkFetcher( std::shared_ptr<const FileReader> file,
                  const std::vector<std::size_t>& chunkStartBits,
                  ChunkDecoder decoder,
                  const ChunkFetcherConfiguration& configuration ) :
        m_file( std::move( file ) ),
        m_chunkCount( chunkStartBits.size() ),
        m_decoder( std::move( decoder ) ),
        m_configuration( configuration ),
        m_cacheCapacity( cacheCapacity( configuration ) ),
        m_cacheToken( makeCacheToken( configuration, chunkStartBits ) ),
        m_threadPool( std::max<std::size_t>( 1, configuration.parallelism ) )
    {}

    /** Ready chunks the per-reader cache holds: cacheChunkCount, or
     * max(2P + 4, 8) when unset. */
    [[nodiscard]] static std::size_t
    cacheCapacity( const ChunkFetcherConfiguration& configuration ) noexcept
    {
        return configuration.cacheChunkCount > 0
               ? configuration.cacheChunkCount
               : std::max<std::size_t>( 2 * configuration.parallelism + 4, 8 );
    }

    [[nodiscard]] std::size_t
    chunkCount() const noexcept
    {
        return m_chunkCount;
    }

    [[nodiscard]] const FetcherStatistics&
    statistics() const noexcept
    {
        return m_statistics;
    }

    /** Blocking chunk access; dispatches prefetches as @p access says. */
    [[nodiscard]] ChunkDataPtr
    get( std::size_t index, Access access = Access::ADAPTIVE )
    {
        std::shared_future<ChunkDataPtr> future;
        {
            const std::lock_guard<std::mutex> lock( m_mutex );
            ++m_accessClock;

            if ( const auto match = m_cache.find( index ); match != m_cache.end() ) {
                match->second.lastUse = m_accessClock;
                match->second.installedUnread = false;
                if ( match->second.prefetched && !match->second.counted ) {
                    ++m_statistics.prefetchHits;
                    match->second.counted = true;
                    RAPIDGZIP_TELEMETRY_COUNT( "rapidgzip_prefetch_consumed_total",
                                               "Chunk accesses served by a speculative decode.", 1 );
                } else {
                    ++m_statistics.cacheHits;
                    RAPIDGZIP_TELEMETRY_COUNT( "rapidgzip_chunk_cache_hits_total",
                                               "Repeat chunk accesses served from a cache tier.", 1 );
                }
                future = match->second.future;
                if ( m_configuration.sharedCache
                     && ( future.wait_for( std::chrono::seconds( 0 ) )
                          == std::future_status::ready ) ) {
                    /* Shared-tier mode: the per-reader map only bridges a
                     * decode to its first consumption — drop the ready
                     * entry so repeats are served (and accounted) by the
                     * shared tier, where residency is byte-bounded. */
                    m_cache.erase( match );
                }
            } else {
                ChunkDataPtr sharedChunk;
                if ( m_configuration.sharedCache ) {
                    sharedChunk = m_configuration.sharedCache->get(
                        ChunkCacheKey{ m_cacheToken, index } );
                }
                if ( sharedChunk ) {
                    ++m_statistics.cacheHits;
                    RAPIDGZIP_TELEMETRY_COUNT( "rapidgzip_chunk_cache_hits_total",
                                               "Repeat chunk accesses served from a cache tier.", 1 );
                    dispatchPrefetches( index, access );
                    evictStaleEntries( index );
                    return sharedChunk;
                }
                ++m_statistics.onDemandDecodes;
                RAPIDGZIP_TELEMETRY_COUNT( "rapidgzip_chunk_on_demand_decodes_total",
                                           "Chunk accesses that had to decode synchronously.", 1 );
                future = insertDecodeTask( index, /* prefetched */ false );
            }

            dispatchPrefetches( index, access );
            evictStaleEntries( index );
        }
        telemetry::Span waitSpan{ "pipeline", "chunk.wait" };
        try {
            return future.get();
        } catch ( ... ) {
            /* Evict the poisoned future so a later access re-decodes
             * instead of replaying the cached failure forever. The entry
             * may already be gone (shared-tier drop, eviction); erasing a
             * ready entry that was concurrently re-decoded only drops a
             * per-reader bridge entry, never shared-tier residency. */
            const std::lock_guard<std::mutex> lock( m_mutex );
            if ( const auto match = m_cache.find( index );
                 ( match != m_cache.end() )
                 && ( match->second.future.wait_for( std::chrono::seconds( 0 ) )
                      == std::future_status::ready ) ) {
                m_cache.erase( match );
            }
            throw;
        }
    }

    /**
     * Span-lending accessor: fetch chunk @p index (same cache/prefetch path
     * as get()) and lend [offsetInChunk, offsetInChunk + size) of it as a
     * refcounted borrowed span. The span pins the whole chunk, so the bytes
     * survive both per-reader bridge-drop and shared-tier LRU eviction for
     * as long as the caller holds the span — the primitive under the serve
     * daemon's zero-copy response path. Throws when @p offsetInChunk lies
     * beyond the decoded chunk; @p size is clamped to the chunk end.
     */
    [[nodiscard]] OwnedSpan
    lendSpan( std::size_t index, std::size_t offsetInChunk, std::size_t size )
    {
        auto chunk = get( index );
        if ( offsetInChunk >= chunk->data.size() ) {
            throw RapidgzipError( "Span offset lies beyond the decoded chunk" );
        }
        const auto take = std::min( size, chunk->data.size() - offsetInChunk );
        return lendChunkSpan( std::move( chunk ), offsetInChunk, take );
    }

    /**
     * Adopt chunk @p index, decoded elsewhere (the verified sweep's kept
     * prefix), as a ready entry. It counts as neither a prefetch nor an
     * on-demand decode. With a shared tier it goes there too, so its bytes
     * are accounted and evicted with everything else; the per-reader entry
     * then only bridges it to its first read, like any decode. The caller
     * installs at most cacheCapacity() chunks.
     */
    void
    install( std::size_t index, ChunkDataPtr chunk )
    {
        if ( m_configuration.sharedCache ) {
            m_configuration.sharedCache->insert( ChunkCacheKey{ m_cacheToken, index }, chunk );
        }
        std::promise<ChunkDataPtr> ready;
        ready.set_value( std::move( chunk ) );
        CacheEntry entry;
        entry.future = ready.get_future().share();
        entry.installedUnread = true;
        const std::lock_guard<std::mutex> lock( m_mutex );
        entry.lastUse = m_accessClock;
        m_cache.insert_or_assign( index, std::move( entry ) );
    }

private:
    struct CacheEntry
    {
        std::shared_future<ChunkDataPtr> future;
        std::uint64_t lastUse{ 0 };
        bool prefetched{ false };
        bool counted{ false };
        /** Installed and not yet read: evicted only after every read entry. */
        bool installedUnread{ false };
    };

    [[nodiscard]] static std::uint64_t
    makeCacheToken( const ChunkFetcherConfiguration& configuration,
                    const std::vector<std::size_t>& chunkStartBits )
    {
        /* The real chunk geometry is folded in: readers of one archive
         * share entries only when their chunks start at the same offsets
         * (chunk i then covers the same bytes), whatever parallelism or
         * configuration planned them; a re-chunked reader — e.g. after a
         * false-boundary merge rebuilt the fetcher — never hits entries
         * keyed under the stale table. */
        auto token = mixHash( configuration.cacheIdentity )
                     ^ mixHash( chunkStartBits.size() );
        for ( const auto start : chunkStartBits ) {
            token = mixHash( token ^ start );
        }
        return token;
    }

    static void
    countDecodeFailure()
    {
        RAPIDGZIP_TELEMETRY_COUNT( "rapidgzip_chunk_decode_failures_total",
                                   "Chunk decodes that failed permanently (post-retry).", 1 );
    }

    /** Caller must hold m_mutex. */
    std::shared_future<ChunkDataPtr>
    insertDecodeTask( std::size_t index, bool prefetched )
    {
        std::function<ChunkDataPtr()> decode =
            [file = m_file, decoder = m_decoder, index] () -> ChunkDataPtr {
                return std::make_shared<const DecodedChunk>( decoder( *file, index ) );
            };
        /* Bounded transient-retry around the decode itself (inside the
         * shared-cache single-flight wrapper below, so waiters of one
         * in-flight decode benefit from its retries too). Transient =
         * I/O errors, allocation failure, injected faults; genuine data
         * corruption fails identically every time, so it propagates on
         * the first attempt instead of burning two more decodes. */
        decode = [inner = std::move( decode ),
                  retries = m_configuration.decodeRetryCount] () -> ChunkDataPtr {
            for ( unsigned attempt = 0; ; ++attempt ) {
                try {
                    failsafe::maybeFailAllocation();
                    if ( failsafe::shouldInject( failsafe::FaultPoint::CHUNK_DECODE ) ) {
                        throw failsafe::FaultInjectedError( "chunk decode" );
                    }
                    return inner();
                } catch ( const failsafe::FaultInjectedError& ) {
                    if ( attempt >= retries ) { countDecodeFailure(); throw; }
                } catch ( const FileIoError& ) {
                    if ( attempt >= retries ) { countDecodeFailure(); throw; }
                } catch ( const std::bad_alloc& ) {
                    if ( attempt >= retries ) { countDecodeFailure(); throw; }
                } catch ( ... ) {
                    countDecodeFailure();
                    throw;  /* deterministic (corruption etc.) — retries cannot help */
                }
                RAPIDGZIP_TELEMETRY_COUNT( "rapidgzip_chunk_decode_retries_total",
                                           "Transient chunk-decode failures retried in place.", 1 );
                io::transientBackoff( attempt );
            }
        };
        if ( m_configuration.sharedCache ) {
            decode = [cache = m_configuration.sharedCache,
                      key = ChunkCacheKey{ m_cacheToken, index },
                      inner = std::move( decode )] () -> ChunkDataPtr {
                return cache->getOrDecode( key, inner );
            };
        }
        auto future = m_threadPool.submit( std::move( decode ) ).share();
        CacheEntry entry;
        entry.future = future;
        entry.lastUse = m_accessClock;
        entry.prefetched = prefetched;
        m_cache.emplace( index, std::move( entry ) );
        return future;
    }

    /** Caller must hold m_mutex. */
    void
    prefetch( std::size_t index )
    {
        if ( ( index >= m_chunkCount ) || ( m_cache.find( index ) != m_cache.end() ) ) {
            return;
        }
        ++m_statistics.prefetchDispatched;
        RAPIDGZIP_TELEMETRY_COUNT( "rapidgzip_prefetch_issued_total",
                                   "Speculative chunk decodes submitted to the pool.", 1 );
        (void)insertDecodeTask( index, /* prefetched */ true );
    }

    /** Caller must hold m_mutex. */
    void
    dispatchPrefetches( std::size_t accessedIndex, Access access )
    {
        const auto parallelism = std::max<std::size_t>( 1, m_configuration.parallelism );
        auto depth = parallelism;  /* WHOLE_STREAM: no ramp to wait for */
        if ( access == Access::ADAPTIVE ) {
            /* Repeated accesses to the same chunk (byte-wise read() loops)
             * neither grow nor reset the sequential streak. */
            if ( ( m_lastAccess != SIZE_MAX ) && ( accessedIndex == m_lastAccess + 1 ) ) {
                ++m_sequentialStreak;
            } else if ( accessedIndex != m_lastAccess ) {
                m_sequentialStreak = 0;
            }
            m_lastAccess = accessedIndex;
            depth = std::min<std::size_t>(
                parallelism, std::size_t( 1 ) << std::min<std::size_t>( m_sequentialStreak, 16 ) );
        }
        for ( std::size_t i = 1; i <= depth; ++i ) {
            prefetch( accessedIndex + i );
        }
    }

    /** Caller must hold m_mutex. Never evicts in-flight decodes or @p keepIndex;
     * installed chunks nobody has read yet go last. */
    void
    evictStaleEntries( std::size_t keepIndex )
    {
        const auto older = [] ( const CacheEntry& a, const CacheEntry& b ) {
            return std::make_pair( a.installedUnread, a.lastUse )
                   < std::make_pair( b.installedUnread, b.lastUse );
        };
        while ( m_cache.size() > m_cacheCapacity ) {
            auto victim = m_cache.end();
            for ( auto it = m_cache.begin(); it != m_cache.end(); ++it ) {
                if ( it->first == keepIndex ) {
                    continue;
                }
                if ( it->second.future.wait_for( std::chrono::seconds( 0 ) )
                     != std::future_status::ready ) {
                    continue;
                }
                if ( ( victim == m_cache.end() ) || older( it->second, victim->second ) ) {
                    victim = it;
                }
            }
            if ( victim == m_cache.end() ) {
                break;  /* everything else is still decoding */
            }
            if ( victim->second.prefetched && !victim->second.counted ) {
                ++m_statistics.prefetchWasted;
                RAPIDGZIP_TELEMETRY_COUNT( "rapidgzip_prefetch_wasted_total",
                                           "Speculative decodes evicted before any consumer used them.", 1 );
            }
            m_cache.erase( victim );
            ++m_statistics.evictions;
        }
    }

    std::shared_ptr<const FileReader> m_file;
    std::size_t m_chunkCount{ 0 };
    ChunkDecoder m_decoder;
    ChunkFetcherConfiguration m_configuration;
    std::size_t m_cacheCapacity;
    std::uint64_t m_cacheToken;

    std::mutex m_mutex;
    std::map<std::size_t, CacheEntry> m_cache;
    FetcherStatistics m_statistics;
    std::uint64_t m_accessClock{ 0 };

    std::size_t m_lastAccess{ SIZE_MAX };
    std::size_t m_sequentialStreak{ 0 };

    /* Pool last: its destructor runs first, joining workers that capture m_file. */
    ThreadPool m_threadPool;
};

/** Uncompressed chunk offsets from chunk sizes: chunkCount + 1 entries,
 * starting at 0 and ending at the total size. */
[[nodiscard]] inline std::vector<std::size_t>
chunkOffsets( const std::vector<std::size_t>& sizes )
{
    std::vector<std::size_t> offsets;
    offsets.reserve( sizes.size() + 1 );
    offsets.push_back( 0 );
    for ( const auto size : sizes ) {
        offsets.push_back( offsets.back() + size );
    }
    return offsets;
}

/**
 * The one chunk walk under every chunked read (ParallelGzipReader's read(),
 * readSpans() and decompressAll(sink), FrameParallelReader's readAt() and
 * readSpansAt()): hand @p visit each chunk covering [position,
 * position + size) with the offset and length of the covered part.
 * @p uncompressedOffsets is chunkOffsets() of the chunk sizes. Returns the
 * bytes visited (short at EOF).
 *
 * A chunk whose decoded size differs from its recorded span means the
 * offsets are stale or corrupt (an imported index, an adopted sidecar):
 * an overstated span would read past the chunk, an understated one shifts
 * every later offset, so both throw instead of serving bytes from the
 * wrong stream position.
 */
template<typename Visitor>
[[nodiscard]] std::size_t
walkChunks( ChunkFetcher& fetcher,
            const std::vector<std::size_t>& uncompressedOffsets,
            std::size_t position,
            std::size_t size,
            const Visitor& visit )
{
    std::size_t produced = 0;
    while ( ( produced < size ) && ( position < uncompressedOffsets.back() ) ) {
        const auto next = std::upper_bound( uncompressedOffsets.begin(),
                                            uncompressedOffsets.end(), position );
        const auto chunkIndex = static_cast<std::size_t>(
            std::distance( uncompressedOffsets.begin(), next ) ) - 1U;
        const auto chunk = fetcher.get( chunkIndex );
        if ( chunk->data.size() != *next - uncompressedOffsets[chunkIndex] ) {
            throw RapidgzipError( "Chunk size disagrees with the recorded chunk offsets — "
                                  "stale or corrupt index" );
        }
        const auto offsetInChunk = position - uncompressedOffsets[chunkIndex];
        const auto take = std::min( size - produced, chunk->data.size() - offsetInChunk );
        visit( chunk, offsetInChunk, take );
        produced += take;
        position += take;
    }
    return produced;
}

}  // namespace rapidgzip
