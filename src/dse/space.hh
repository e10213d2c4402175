/**
 * @file
 * The LTRF design space: the cross product of the parametric
 * register file axes (cell technology x bank count x bank size x
 * network, via tech/rf_model) with the microarchitectural knobs the
 * paper sweeps one at a time (register cache size, prefetch policy,
 * active warp count — Figures 12-14) and the latency-tolerance
 * knobs the paper's central claim opens up (register-interval
 * length decoupled from the cache partition, operand-collector
 * count, DRAM bandwidth scaling).
 *
 * Every axis is declared exactly once, as an AxisDesc entry in
 * axisRegistry(): its report name, key-token codec, DesignPoint
 * accessors, DesignSpace allowed-value accessor, auto-derivation
 * rule, range check, and SimConfig application. All generic
 * machinery — enumeration, sampling, neighborhoods, containment,
 * validation, stable keys, crossover, report round-trips — iterates
 * the registry instead of hand-written per-axis code, so adding an
 * axis is one registry entry plus a DesignPoint field and a
 * DesignSpace value list.
 *
 * A DesignSpace is a set of allowed values per axis; it indexes its
 * points deterministically (lexicographic, tech-major, last axis
 * fastest) and yields single-step neighborhoods for hill-climbing.
 * Points are identified by a stable key string used for
 * deduplication, tagging sweep cells, and report output.
 */

#ifndef LTRF_DSE_SPACE_HH
#define LTRF_DSE_SPACE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"
#include "tech/rf_model.hh"

namespace ltrf::dse
{

/**
 * How registers reach the operand collectors ahead of demand. Maps
 * onto the RfDesign the simulator implements; IDEAL is deliberately
 * absent — it is an oracle, not a buildable design point.
 */
enum class PrefetchPolicy
{
    NONE,           ///< no register cache (BL)
    HW_CACHE,       ///< demand-filled hardware cache (RFC)
    SW_CACHE,       ///< software-managed cache, strand allocation (SHRF)
    STRAND,         ///< LTRF prefetch at strand boundaries
    INTERVAL,       ///< LTRF prefetch at register-interval boundaries
    INTERVAL_PLUS,  ///< operand-liveness-aware LTRF (LTRF+)
};

/** @return the CLI token: "none", "rfc", "shrf", "strand", ... */
const char *prefetchPolicyName(PrefetchPolicy p);

/** The RfDesign the simulator runs for @p p. */
RfDesign policyDesign(PrefetchPolicy p);

/** @return the CLI token: "hp", "lstp", "tfet", "dwm". */
const char *cellTechToken(CellTech t);

/** @return the CLI token: "xbar" or "fbfly". */
const char *networkToken(NetworkKind n);

// Case-insensitive token parsers; return false on unknown names.
bool parseCellTech(const std::string &name, CellTech &out);
bool parseNetwork(const std::string &name, NetworkKind &out);
bool parsePolicy(const std::string &name, PrefetchPolicy &out);

/**
 * Registry index of each axis. The order is load-bearing: it is the
 * key segment order, the enumeration radix order (last axis
 * fastest), and the neighbor/crossover iteration order. Legacy
 * seven-axis keys (report schemas v1/v2) are a prefix of it.
 */
enum AxisId
{
    AXIS_TECH = 0,
    AXIS_BANKS,
    AXIS_BANK_SIZE,
    AXIS_NETWORK,
    AXIS_CACHE_KB,
    AXIS_POLICY,
    AXIS_WARPS,
    AXIS_INTERVAL,      ///< registers per interval (decoupled)
    AXIS_COLLECTORS,    ///< operand collectors per SM
    AXIS_DRAM,          ///< DRAM service cycles per line
    NUM_AXES,
};

/** Key segments in a legacy (schema v1/v2) design point key. */
constexpr int NUM_LEGACY_AXES = 7;

struct DesignPoint;
struct DesignSpace;

/**
 * One axis, declared once. Axis values are carried as plain ints in
 * generic code (enum axes store the enum cast to int); the typed
 * DesignPoint fields and DesignSpace value lists stay strongly
 * typed underneath, with the accessors below bridging the two.
 */
struct AxisDesc
{
    /** Report/axis-map name, e.g. "banks". */
    const char *name;
    /** CLI list flag that restricts this axis, e.g. "--banks". */
    const char *cli_flag;
    /** Consumed by the parametric RF model (tech layer) rather than
     *  an apply() write into SimConfig. */
    bool model_axis;
    /** True if the axis map serializes the value as a JSON number;
     *  false for token axes (tech/network/policy). */
    bool numeric;
    /** Stable key token for value @p v, prefix included ("b8"). */
    std::string (*token)(int v);
    /** Inverse of token(); false on malformed/unknown tokens. */
    bool (*parse)(const std::string &tok, int &v);
    int (*get)(const DesignPoint &p);
    void (*set)(DesignPoint &p, int v);
    /** This axis's allowed-value list in @p s, as ints. */
    std::vector<int> (*values)(const DesignSpace &s);
    /**
     * Derived value when the axis's allowed list is empty ("auto");
     * nullptr for axes that must not be empty. Derivations read
     * only non-derived axes, so one finalize() pass suffices.
     */
    int (*derive)(const DesignPoint &p);
    /** fatal() if @p v can never be simulated (range checks shared
     *  by space validation and saved-key parsing). */
    void (*check)(int v);
    /** Write the axis into the simulated configuration; nullptr for
     *  model axes (configFor applies those via applyRfModel). */
    void (*apply)(SimConfig &cfg, int v);
};

/** The axis registry, indexed by AxisId. */
const std::array<AxisDesc, NUM_AXES> &axisRegistry();

/** One candidate design: RF organization + microarchitecture knobs. */
struct DesignPoint
{
    CellTech tech = CellTech::HP_SRAM;
    int banks_mult = 1;
    int bank_size_mult = 1;
    NetworkKind network = NetworkKind::CROSSBAR;
    int cache_kb = 16;
    PrefetchPolicy policy = PrefetchPolicy::INTERVAL;
    int active_warps = 8;
    /** Registers per interval. Spaces with an empty interval axis
     *  derive it as the per-warp cache partition (the Figure 12/13
     *  methodology); the point always carries the concrete value. */
    int regs_per_interval = 16;
    int num_operand_collectors = 8;
    /** DRAM data-bus cycles per 128B line (bandwidth scale). */
    int dram_service_cycles = 1;

    /** The tech-layer axes of this point. */
    RfModelPoint modelPoint() const;

    /** Stable identity over all registry axes, e.g.
     *  "tfet/b8/z1/fbfly/c16/interval/w8/i16/o8/d1". */
    std::string key() const;

    bool operator==(const DesignPoint &o) const = default;
};

/**
 * Materialize the simulated configuration for @p p at @p num_sms
 * SMs: applyRfModel for the model axes, then every non-model axis's
 * registry apply() (cache size, design, active warps, interval
 * budget, operand collectors, DRAM service cycles).
 */
SimConfig configFor(const DesignPoint &p, int num_sms);

/**
 * Simulation-equivalence key of @p cfg: two design points with equal
 * sim keys produce identical simulations (e.g. crossbar vs butterfly
 * at 1x banks, where the latency model coincides), so the explorer
 * simulates once and reuses the results.
 */
std::string simKey(const SimConfig &cfg);

/** Allowed values per axis; the cross product is the search space. */
struct DesignSpace
{
    std::vector<CellTech> techs;
    std::vector<int> banks;         ///< banks_mult values
    std::vector<int> bank_sizes;    ///< bank_size_mult values
    /**
     * Empty means "auto": each point gets defaultNetwork() for its
     * bank count (the paper's pairing) instead of a network axis.
     */
    std::vector<NetworkKind> networks;
    std::vector<int> cache_kbs;
    std::vector<PrefetchPolicy> policies;
    std::vector<int> warps;
    /**
     * Registers per interval. Empty means "auto": each point's
     * interval budget matches its per-warp cache partition (the
     * paper's cache-size sweep methodology); a non-empty list
     * decouples the two.
     */
    std::vector<int> intervals;
    /** Operand collectors per SM. */
    std::vector<int> collectors = {8};
    /** DRAM service cycles per 128B line (bandwidth scaling). */
    std::vector<int> dram_service = {1};

    /**
     * The full space: all four technologies, 1-8x banks and bank
     * sizes, auto network, 8-32KB caches, interval prefetch, 4-16
     * active warps, auto interval length, 8 collectors, 1x DRAM
     * service.
     */
    static DesignSpace defaults();

    /** Number of points (product of non-empty axis sizes). */
    std::uint64_t size() const;

    /**
     * The @p index-th point in lexicographic order (registry order,
     * tech-major, last axis fastest).
     */
    DesignPoint pointAt(std::uint64_t index) const;

    /** Enumeration index of @p p; requires contains(p). */
    std::uint64_t indexOf(const DesignPoint &p) const;

    /** Re-derive every auto axis of @p p (empty allowed list). */
    void finalize(DesignPoint &p) const;

    /**
     * All points one axis step away from @p p (previous/next allowed
     * value per axis), in registry order. Axes where @p p's value is
     * not in the allowed list contribute no neighbors; auto axes are
     * re-derived on every neighbor.
     */
    std::vector<DesignPoint> neighbors(const DesignPoint &p) const;

    /**
     * True if every axis value of @p p is allowed by this space
     * (auto axes must carry their derived value). Used when
     * resuming: points from a saved frontier seed the Pareto
     * frontier regardless, but only in-space points can join a
     * strategy's population.
     */
    bool contains(const DesignPoint &p) const;

    /** fatal() on empty axes or values the simulator cannot run. */
    void validate() const;
};

/**
 * Streaming generator over a contiguous stripe of a space's
 * enumeration order: yields pointAt(first), pointAt(first + 1), ...
 * one point at a time, without materializing the stripe.
 *
 * This is how the explorer walks very large spaces (10^6-10^7
 * points): materializing the stripe would allocate every point up
 * front just to have most of them rejected by the budget, while a
 * cursor keeps peak memory independent of the space size. The cursor
 * caches the axis value lists once and steps a mixed-radix odometer,
 * so advancing is O(axes) with no per-point allocation; the yielded
 * sequence is exactly the pointAt() order (asserted by tests).
 *
 * The referenced space must outlive the cursor and not change while
 * iterating.
 */
class PointCursor
{
  public:
    /**
     * Iterate the stripe [first, first + count) of @p s's
     * enumeration order, clamped to the space size. @p first at or
     * past size() yields an empty cursor, matching the explorer's
     * "shard past the end" case.
     */
    PointCursor(const DesignSpace &s, std::uint64_t first,
                std::uint64_t count);

    /** Yield the next point into @p out; false when exhausted. */
    bool next(DesignPoint &out);

    /** Enumeration index the next next() call will yield. */
    std::uint64_t index() const { return idx; }

  private:
    const DesignSpace *space;
    /** Non-empty axes in registry order with their value lists. */
    std::vector<std::pair<const AxisDesc *, std::vector<int>>> radix;
    /** Current mixed-radix digits, one per radix entry. */
    std::vector<std::size_t> digits;
    std::uint64_t idx = 0;        ///< enumeration index of digits
    std::uint64_t remaining = 0;  ///< points left to yield
};

} // namespace ltrf::dse

#endif // LTRF_DSE_SPACE_HH
