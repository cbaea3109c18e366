#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "Telemetry.hpp"

namespace rapidgzip::telemetry {

/**
 * Process-wide metric registry: counters, gauges, and log-bucketed latency
 * histograms, all designed so the write path is wait-free relaxed atomics
 * and aggregation only happens on scrape (the /metrics endpoint or a bench
 * summary).
 *
 * Counters and histograms shard their cells across cache-line-aligned slots
 * indexed by threadShardIndex() so concurrent writers on different cores do
 * not bounce one line. Registration (name -> handle) takes a mutex but is
 * meant to happen once per call site via a function-local static — see
 * RAPIDGZIP_TELEMETRY_COUNT below.
 */

inline constexpr std::size_t METRIC_SHARD_COUNT = 16;

class Counter
{
public:
    Counter( std::string name, std::string labels, std::string help ) :
        m_name( std::move( name ) ),
        m_labels( std::move( labels ) ),
        m_help( std::move( help ) )
    {}

    /** Gated entry point for sporadic call sites that did not check the gate themselves. */
    void
    add( std::uint64_t amount ) noexcept
    {
        if ( metricsEnabled() ) {
            addUnchecked( amount );
        }
    }

    /** Call only inside a metricsEnabled() branch (or when counting unconditionally is intended). */
    void
    addUnchecked( std::uint64_t amount ) noexcept
    {
        m_shards[threadShardIndex() % METRIC_SHARD_COUNT].value.fetch_add( amount, std::memory_order_relaxed );
    }

    [[nodiscard]] std::uint64_t
    total() const noexcept
    {
        std::uint64_t sum{ 0 };
        for ( const auto& shard : m_shards ) {
            sum += shard.value.load( std::memory_order_relaxed );
        }
        return sum;
    }

    [[nodiscard]] const std::string& name() const noexcept { return m_name; }
    [[nodiscard]] const std::string& labels() const noexcept { return m_labels; }
    [[nodiscard]] const std::string& help() const noexcept { return m_help; }

private:
    struct alignas( 64 ) Shard
    {
        std::atomic<std::uint64_t> value{ 0 };
    };

    std::array<Shard, METRIC_SHARD_COUNT> m_shards{};
    std::string m_name;
    std::string m_labels;
    std::string m_help;
};


class Gauge
{
public:
    Gauge( std::string name, std::string help ) :
        m_name( std::move( name ) ),
        m_help( std::move( help ) )
    {}

    void set( std::int64_t value ) noexcept { m_value.store( value, std::memory_order_relaxed ); }
    void add( std::int64_t delta ) noexcept { m_value.fetch_add( delta, std::memory_order_relaxed ); }

    [[nodiscard]] std::int64_t value() const noexcept { return m_value.load( std::memory_order_relaxed ); }

    [[nodiscard]] const std::string& name() const noexcept { return m_name; }
    [[nodiscard]] const std::string& help() const noexcept { return m_help; }

private:
    std::atomic<std::int64_t> m_value{ 0 };
    std::string m_name;
    std::string m_help;
};


/**
 * Log-bucketed histogram in the HDR style: values are binned by their
 * power-of-two octave, each octave subdivided into 2^SUB_BUCKET_BITS linear
 * sub-buckets, giving a worst-case relative error of 1/2^SUB_BUCKET_BITS
 * (12.5%) at any magnitude — enough resolution for p50/p90/p99 over seven
 * decades of latency with 496 buckets total.
 *
 * Samples are raw integers (we record nanoseconds); `renderScale` converts
 * to the exposition unit (1e-9 -> seconds) only when scraped.
 */
class Histogram
{
public:
    static constexpr unsigned SUB_BUCKET_BITS = 3;
    static constexpr std::size_t SUB_BUCKETS = std::size_t( 1 ) << SUB_BUCKET_BITS;
    /* Octaves 0..63 collapse onto (63 - SUB_BUCKET_BITS + 1) + 1 index blocks. */
    static constexpr std::size_t BUCKET_COUNT = ( 64 - SUB_BUCKET_BITS + 1 ) * SUB_BUCKETS;
    static constexpr std::size_t HISTOGRAM_SHARDS = 4;

    Histogram( std::string name, std::string help, double renderScale ) :
        m_name( std::move( name ) ),
        m_help( std::move( help ) ),
        m_renderScale( renderScale )
    {}

    [[nodiscard]] static constexpr std::size_t
    bucketIndex( std::uint64_t value ) noexcept
    {
        if ( value < SUB_BUCKETS ) {
            return static_cast<std::size_t>( value );
        }
        unsigned exponent{ 63 };
        while ( ( value >> exponent ) == 0 ) {
            --exponent;
        }
        const auto mantissa = ( value >> ( exponent - SUB_BUCKET_BITS ) ) & ( SUB_BUCKETS - 1 );
        return ( static_cast<std::size_t>( exponent - SUB_BUCKET_BITS + 1 ) << SUB_BUCKET_BITS )
               | static_cast<std::size_t>( mantissa );
    }

    /** Smallest value mapping to @p index. Inverse of bucketIndex on bucket boundaries. */
    [[nodiscard]] static constexpr std::uint64_t
    bucketLowerBound( std::size_t index ) noexcept
    {
        if ( index < SUB_BUCKETS ) {
            return index;
        }
        const auto block = index >> SUB_BUCKET_BITS;
        const auto mantissa = index & ( SUB_BUCKETS - 1 );
        const auto exponent = static_cast<unsigned>( block + SUB_BUCKET_BITS - 1 );
        return ( std::uint64_t( 1 ) << exponent )
               + ( static_cast<std::uint64_t>( mantissa ) << ( exponent - SUB_BUCKET_BITS ) );
    }

    void
    record( std::uint64_t value ) noexcept
    {
        if ( metricsEnabled() ) {
            recordUnchecked( value );
        }
    }

    void
    recordUnchecked( std::uint64_t value ) noexcept
    {
        auto& shard = m_shards[threadShardIndex() % HISTOGRAM_SHARDS];
        shard.buckets[bucketIndex( value )].fetch_add( 1, std::memory_order_relaxed );
        shard.sum.fetch_add( value, std::memory_order_relaxed );
        shard.count.fetch_add( 1, std::memory_order_relaxed );
    }

    struct Snapshot
    {
        std::array<std::uint64_t, BUCKET_COUNT> buckets{};
        std::uint64_t sum{ 0 };
        std::uint64_t count{ 0 };

        /**
         * Quantile estimate: midpoint of the bucket holding the q-th sample.
         * Exact up to the 12.5% bucket width; returns 0 for an empty histogram.
         */
        [[nodiscard]] std::uint64_t
        quantile( double q ) const noexcept
        {
            if ( count == 0 ) {
                return 0;
            }
            const auto rank = static_cast<std::uint64_t>( q * static_cast<double>( count - 1 ) );
            std::uint64_t cumulative{ 0 };
            for ( std::size_t i = 0; i < BUCKET_COUNT; ++i ) {
                cumulative += buckets[i];
                if ( cumulative > rank ) {
                    const auto lower = bucketLowerBound( i );
                    const auto upper = ( i + 1 < BUCKET_COUNT ) ? bucketLowerBound( i + 1 ) : lower + 1;
                    return lower + ( upper - lower ) / 2;
                }
            }
            return bucketLowerBound( BUCKET_COUNT - 1 );
        }
    };

    [[nodiscard]] Snapshot
    snapshot() const noexcept
    {
        Snapshot merged;
        for ( const auto& shard : m_shards ) {
            for ( std::size_t i = 0; i < BUCKET_COUNT; ++i ) {
                merged.buckets[i] += shard.buckets[i].load( std::memory_order_relaxed );
            }
            merged.sum += shard.sum.load( std::memory_order_relaxed );
            merged.count += shard.count.load( std::memory_order_relaxed );
        }
        return merged;
    }

    [[nodiscard]] const std::string& name() const noexcept { return m_name; }
    [[nodiscard]] const std::string& help() const noexcept { return m_help; }
    [[nodiscard]] double renderScale() const noexcept { return m_renderScale; }

private:
    struct Shard
    {
        std::array<std::atomic<std::uint64_t>, BUCKET_COUNT> buckets{};
        std::atomic<std::uint64_t> sum{ 0 };
        std::atomic<std::uint64_t> count{ 0 };
    };

    std::array<Shard, HISTOGRAM_SHARDS> m_shards{};
    std::string m_name;
    std::string m_help;
    double m_renderScale;
};


/** Fixed-precision double rendering — NOT std::to_string, which is locale-dependent. */
[[nodiscard]] inline std::string
formatDouble( double value, int precision = 6 )
{
    std::array<char, 64> buffer{};
    std::snprintf( buffer.data(), buffer.size(), "%.*f", precision, value );
    return std::string( buffer.data() );
}

/** Escape a Prometheus label value: backslash, double quote, newline. */
[[nodiscard]] inline std::string
escapeLabelValue( const std::string& value )
{
    std::string escaped;
    escaped.reserve( value.size() );
    for ( const auto c : value ) {
        switch ( c ) {
        case '\\': escaped += "\\\\"; break;
        case '"': escaped += "\\\""; break;
        case '\n': escaped += "\\n"; break;
        default: escaped += c; break;
        }
    }
    return escaped;
}


class Registry
{
public:
    [[nodiscard]] static Registry&
    instance()
    {
        static Registry registry;
        return registry;
    }

    /**
     * Get or register the counter with this family @p name and optional
     * @p labels ("key=\"value\"" form, already escaped). Returned references
     * stay valid for the process lifetime — cache them at call sites.
     */
    [[nodiscard]] Counter&
    counter( const std::string& name, const std::string& help = {}, const std::string& labels = {} )
    {
        const std::lock_guard<std::mutex> lock{ m_mutex };
        const auto key = labels.empty() ? name : name + "{" + labels + "}";
        auto& slot = m_counters[key];
        if ( !slot ) {
            slot = std::make_unique<Counter>( name, labels, help );
        }
        return *slot;
    }

    [[nodiscard]] Gauge&
    gauge( const std::string& name, const std::string& help = {} )
    {
        const std::lock_guard<std::mutex> lock{ m_mutex };
        auto& slot = m_gauges[name];
        if ( !slot ) {
            slot = std::make_unique<Gauge>( name, help );
        }
        return *slot;
    }

    [[nodiscard]] Histogram&
    histogram( const std::string& name, const std::string& help = {}, double renderScale = 1e-9 )
    {
        const std::lock_guard<std::mutex> lock{ m_mutex };
        auto& slot = m_histograms[name];
        if ( !slot ) {
            slot = std::make_unique<Histogram>( name, help, renderScale );
        }
        return *slot;
    }

    /**
     * Render everything in Prometheus exposition format: one # HELP / # TYPE
     * pair per metric family, `_total`-suffixed counter names are the
     * caller's responsibility, histograms render as summaries with
     * p50/p90/p99 quantile series plus _sum and _count.
     */
    [[nodiscard]] std::string
    renderPrometheus() const
    {
        const std::lock_guard<std::mutex> lock{ m_mutex };
        std::string out;
        out.reserve( 4096 );

        std::string lastFamily;
        for ( const auto& [key, counter] : m_counters ) {
            if ( counter->name() != lastFamily ) {
                lastFamily = counter->name();
                if ( !counter->help().empty() ) {
                    out += "# HELP " + counter->name() + " " + counter->help() + "\n";
                }
                out += "# TYPE " + counter->name() + " counter\n";
            }
            out += key + " " + std::to_string( counter->total() ) + "\n";
        }

        for ( const auto& [name, gauge] : m_gauges ) {
            if ( !gauge->help().empty() ) {
                out += "# HELP " + name + " " + gauge->help() + "\n";
            }
            out += "# TYPE " + name + " gauge\n";
            out += name + " " + std::to_string( gauge->value() ) + "\n";
        }

        for ( const auto& [name, histogram] : m_histograms ) {
            const auto snapshot = histogram->snapshot();
            if ( !histogram->help().empty() ) {
                out += "# HELP " + name + " " + histogram->help() + "\n";
            }
            out += "# TYPE " + name + " summary\n";
            for ( const auto quantile : { 0.5, 0.9, 0.99 } ) {
                const auto value = static_cast<double>( snapshot.quantile( quantile ) ) * histogram->renderScale();
                out += name + "{quantile=\"" + formatDouble( quantile, 2 ) + "\"} "
                       + formatDouble( value ) + "\n";
            }
            out += name + "_sum " + formatDouble( static_cast<double>( snapshot.sum ) * histogram->renderScale() )
                   + "\n";
            out += name + "_count " + std::to_string( snapshot.count ) + "\n";
        }

        return out;
    }

    /** Sum over all counter series of a family — for tests and bench summaries. */
    [[nodiscard]] std::uint64_t
    counterTotal( const std::string& name ) const
    {
        const std::lock_guard<std::mutex> lock{ m_mutex };
        std::uint64_t sum{ 0 };
        for ( const auto& [key, counter] : m_counters ) {
            if ( counter->name() == name ) {
                sum += counter->total();
            }
        }
        return sum;
    }

private:
    Registry() = default;

    mutable std::mutex m_mutex;
    /* Keys sort counters of one family (bare name, then name{labels}...) adjacently. */
    std::map<std::string, std::unique_ptr<Counter>> m_counters;
    std::map<std::string, std::unique_ptr<Gauge>> m_gauges;
    std::map<std::string, std::unique_ptr<Histogram>> m_histograms;
};

}  // namespace rapidgzip::telemetry

/**
 * One-line counter hook: a single relaxed load when telemetry is off, and a
 * per-call-site cached handle (function-local static inside the enabled
 * branch, so the static-init guard is never touched while disabled).
 */
#define RAPIDGZIP_TELEMETRY_COUNT( counterName, helpText, amount )                                  \
    do {                                                                                            \
        if ( ::rapidgzip::telemetry::metricsEnabled() ) {                                           \
            static auto& rapidgzipTelemetryCounter_ =                                               \
                ::rapidgzip::telemetry::Registry::instance().counter( counterName, helpText );      \
            rapidgzipTelemetryCounter_.addUnchecked( amount );                                      \
        }                                                                                           \
    } while ( false )

/** RAPIDGZIP_TELEMETRY_COUNT for one labeled series of a counter family;
 * @p labels in "key=\"value\"" form. */
#define RAPIDGZIP_TELEMETRY_COUNT_LABELED( counterName, helpText, labels, amount )                 \
    do {                                                                                            \
        if ( ::rapidgzip::telemetry::metricsEnabled() ) {                                           \
            static auto& rapidgzipTelemetryCounter_ =                                               \
                ::rapidgzip::telemetry::Registry::instance().counter( counterName, helpText,        \
                                                                      labels );                     \
            rapidgzipTelemetryCounter_.addUnchecked( amount );                                      \
        }                                                                                           \
    } while ( false )
