// Package place implements placement and routing of homogeneous automata
// onto the Automata Processor's block-structured fabric.
//
// The real AP tool chain maps STEs to memory columns grouped into rows and
// blocks, and programs a hierarchical routing matrix to carry activation
// signals. This package reproduces that process functionally and reports
// the metrics of the paper's Table 5: total blocks, STE utilization, mean
// block-routing (BR) allocation, and clock divisor. Every flow places the
// network it is given; DeviceNetwork derives the one a design is placed as.
//
// Three compilation strategies from Table 6 are provided:
//
//   - Place: the baseline, a global element-granularity placement of the
//     entire design with iterative refinement (slow, good density);
//   - PlaceStamped: the pre-compiled flow, which places a single design
//     once and stamps copies at row granularity (faster, poor density);
//   - Tessellate: the RAPID tessellation flow, which places one block of
//     as many copies as fit and tiles it (fastest, near-best density).
//
// All three lay rows out with one row model (rowLayout) and place onto the
// first-generation AP.
//
// The baseline flow scales out two ways. Connected components are chunked
// into fixed-boundary groups and placed on a worker pool
// (Config.Parallelism); boundaries and merge order never depend on the
// worker count, so the resulting placement is bit-identical at every
// parallelism level. And with a Config.Stamper, repeated component shapes
// take the macro-stamping fast path: each distinct shape is placed once
// and every further instance is stamped into free row ranges (see
// stamp.go), which is what makes macro-heavy rule packs compile at
// stamping speed instead of global-optimization speed.
package place

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/ap"
	"repro/internal/automata"
	"repro/internal/telemetry"
)

// BRLinesPerBlock is the modeled number of block-level routing lines: one
// per row driver pair in the routing matrix. A signal crossing rows within
// a block, entering a block, or leaving a block consumes one line in each
// block it touches.
const BRLinesPerBlock = 48

// firstGen is the device resource model every flow places onto.
var firstGen = ap.FirstGeneration()

// refinePasses is the number of refinement sweeps of the baseline flow.
const refinePasses = 6

// DefaultFanInLimit is the routing fan-in bound of the device network: one
// row of STEs.
const DefaultFanInLimit = 16

// DeviceNetwork returns the network a design runs as on the device: net
// pruned, prefix- and suffix-merged and fan-in split at DefaultFanInLimit,
// as placement tools transform a design before mapping it (Table 4's
// device STEs). It is the one derivation of that network: Place,
// PlaceStamped and Tessellate place what they are given, so callers
// pass them this network.
func DeviceNetwork(net *automata.Network) *automata.Network {
	return net.OptimizeForDevice(DefaultFanInLimit)
}

// broadcastFanOut is the out-degree at which an element is treated as a
// broadcast source (e.g. the START_OF_INPUT tracker): placement replicates
// such elements into each block that consumes them rather than routing one
// signal across the whole board.
const broadcastFanOut = 32

// Metrics summarizes a placed design (Table 5 columns).
type Metrics struct {
	TotalBlocks    int
	ClockDivisor   int
	STEUtilization float64 // used STEs / (256 × blocks)
	MeanBRAlloc    float64 // mean fraction of block routing lines used

	Elements int
	STEs     int
	Counters int
	Gates    int
}

// Placement is the result of placing a design.
type Placement struct {
	// Network is the network that was placed, frozen.
	Network *automata.Network
	// BlockOf maps element id to its block index (-1 for replicated
	// broadcast sources, which exist in every consuming block).
	BlockOf []int
	// RowOf maps element id to its row within its block.
	RowOf []int
	// PhysicalBlocks maps each logical block index to the physical board
	// block it occupies: logical block i is physical block i.
	PhysicalBlocks []int
	// Stamped is the number of component instances placed by the
	// macro-stamping fast path (zero without a Config.Stamper).
	Stamped int
	// Metrics are the Table 5 statistics.
	Metrics Metrics
}

// CapacityError is returned when a design needs more blocks than the
// board has. It is matched with errors.As.
type CapacityError struct {
	Design    string
	Component string // the component that opened the first unplaceable block
	Needed    int    // blocks the placed design requires
	Total     int    // blocks on the board
}

func (e *CapacityError) Error() string {
	msg := fmt.Sprintf("place: design %q needs %d blocks but the board has %d", e.Design, e.Needed, e.Total)
	if e.Component != "" {
		msg += fmt.Sprintf("; first component without a home: %s", e.Component)
	}
	return msg
}

// Config controls placement.
type Config struct {
	// Parallelism bounds the worker goroutines placing independent
	// component groups; <= 0 uses GOMAXPROCS, 1 runs serially. Group
	// boundaries and merge order are independent of the worker count, so
	// the placement is identical for every value.
	Parallelism int
	// Stamper enables the macro-stamping fast path: components whose
	// canonical shape repeats — in this design, or in the stamper's
	// cross-design cache — are placed once per shape and stamped at row
	// granularity instead of re-entering packing and refinement. nil
	// disables stamping.
	Stamper *Stamper
	// MaxBlocks caps the physical blocks available; 0 means the full
	// board.
	MaxBlocks int
}

func (cfg Config) withDefaults() Config {
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	return cfg
}

// Placement attempts are cold-path events, so they report unconditionally
// into the process-wide registry.
var (
	telPlaceAttempts = telemetry.Default().Counter(
		"rapid_place_attempts_total",
		"Placement flows started (baseline and stamped).")
	telPlaceFailures = telemetry.Default().Counter(
		"rapid_place_failures_total",
		"Placement flows that returned an error.")
	telPlaceCapacityErrors = telemetry.Default().Counter(
		"rapid_place_capacity_errors_total",
		"Placement failures where the design exceeded board capacity.")
	telPlaceStamped = telemetry.Default().Counter(
		"rapid_place_stamped_components_total",
		"Component instances placed by stamping a cached shape footprint instead of packing and refinement.")
)

// notePlacement accounts one finished placement flow. Capacity errors are
// counted at their construction site in physicalAssignment, which both
// the baseline and stamped flows reach.
func notePlacement(err error) {
	telPlaceAttempts.Inc()
	if err != nil {
		telPlaceFailures.Inc()
	}
}

// Place runs the baseline global placement of Table 6: the entire design is
// partitioned at element granularity with iterative refinement. Cost grows
// with design size; this is the deliberately thorough flow. Independent
// component groups place on a worker pool (Config.Parallelism) and
// repeated shapes stamp through Config.Stamper when one is supplied;
// neither changes the result for a given configuration — the output is a
// pure function of the network and Config fields other than Parallelism.
//
// Placement places net as given (a design's DeviceNetwork) and freezes it:
// the returned Placement.Network is net itself, immutable afterwards, and
// the partitioner reads the frozen struct-of-arrays topology instead of
// chasing builder pointers.
func Place(net *automata.Network, cfg Config) (pl *Placement, err error) {
	defer func() { notePlacement(err) }()
	cfg = cfg.withDefaults()
	if net.Len() == 0 {
		return nil, fmt.Errorf("place: design %q is empty", net.Name)
	}
	top, err := net.Freeze()
	if err != nil {
		return nil, fmt.Errorf("place: %w", err)
	}

	p := newPartitioner(net, top, cfg)
	p.arena = arenaPool.Get().(*placeArena)
	p.place()
	pl, err = p.finish()
	// The arena's buffers are only referenced by discarded intermediates
	// (component lists, shape scratch, sort scratch) — never by the
	// returned Placement — so they recycle to the next placement.
	arenaPool.Put(p.arena)
	p.arena = nil
	return pl, err
}

// placeArena pools the per-placement scratch buffers whose sizes track
// the design: component-traversal state, shape-hash scratch, and the
// FFD sort's staging slice. On the compile-at-scale path placements run
// back to back, and recycling these is a measurable share of the stamped
// flow's speedup.
type placeArena struct {
	comps    automata.ComponentScratch
	shape    shapeScratch
	sorted   []sizedComp
	hashes   []ShapeHash
	eligible []bool
}

var arenaPool = sync.Pool{New: func() any { return new(placeArena) }}

// PlaceStamped models the pre-compiled flow: the unit design is placed once
// (with full refinement), then count copies are stamped at row granularity,
// each copy's elements relabeled and routed into its slot. Row granularity
// wastes partially-filled rows, giving the poorer density the paper
// observes for pre-compiled designs, and the per-copy routing pass makes
// the flow scale with the problem size (much faster than the baseline's
// global optimization, much slower than tessellation's size-independent
// tuning).
func PlaceStamped(unit *automata.Network, count int, cfg Config) (*Placement, Metrics, error) {
	cfg = cfg.withDefaults()
	unitPlacement, err := Place(unit, cfg)
	if err != nil {
		return nil, Metrics{}, err
	}
	u := unitPlacement.Metrics
	if u.TotalBlocks > 1 {
		// A multi-block unit stamps at block granularity: every instance
		// keeps its own blocks, broadcast replicas included, so the board's
		// STE utilization is the unit's as Place counts it.
		board := u.scaled(count, u.TotalBlocks*count)
		board.STEUtilization = u.STEUtilization
		return unitPlacement, board, nil
	}
	top := unitPlacement.Network.MustFreeze() // already frozen by Place; returns the cached topology
	all := allElements(top)
	// The stamped unit is frozen to whole rows.
	unitRows := rowsFor(u.STEs, firstGen)
	perBlockByRows := max(1, firstGen.RowsPerBlock/unitRows)
	perBlockByRows = limitByResource(perBlockByRows, firstGen.CountersPerBlock, u.Counters)
	perBlockByRows = limitByResource(perBlockByRows, firstGen.BooleanPerBlock, u.Gates)

	// Stamp each copy: relabel its elements into the slot's rows and
	// verify the slot's routing budget. This is the honest per-instance
	// cost of the pre-compiled flow.
	blocks := 0
	slotInBlock := 0
	brInBlock := 0
	for copyIdx := 0; copyIdx < count; copyIdx++ {
		// Per-copy routing pass: lay the copy out in its slot's rows and
		// count the lines it routes.
		_, lines := rowLayout(top, all, unitRows, firstGen)
		if slotInBlock >= perBlockByRows || brInBlock+lines > BRLinesPerBlock {
			blocks++
			slotInBlock = 0
			brInBlock = 0
		}
		slotInBlock++
		brInBlock += lines
	}
	if slotInBlock > 0 {
		blocks++
	}
	return unitPlacement, u.scaled(count, max(1, blocks)), nil
}

// scaled returns the board-level metrics of count instances whose
// one-instance metrics are m, laid out on blocks blocks: element counts
// multiply and STE utilization becomes the instances' share of the board's
// STEs. Routing allocation and clock divisor are the instance's.
func (m Metrics) scaled(count, blocks int) Metrics {
	m.TotalBlocks = blocks
	m.STEUtilization = math.Min(1, float64(m.STEs*count)/float64(blocks*firstGen.STEsPerBlock()))
	m.Elements *= count
	m.STEs *= count
	m.Counters *= count
	m.Gates *= count
	return m
}

// rowsFor is the whole-row span of stes STEs, at least one row.
func rowsFor(stes int, res ap.Resources) int {
	return max(1, (stes+res.STEsPerRow-1)/res.STEsPerRow)
}

// limitByResource caps perBlock instances by how many instances of usage
// fit a block's capacity of one resource.
func limitByResource(perBlock, capacity, usage int) int {
	if usage == 0 {
		return perBlock
	}
	if byRes := capacity / usage; byRes < perBlock {
		return byRes
	}
	return perBlock
}

// Components returns the connected components Place partitions, in the
// deterministic depth-first order the placement flows use. Broadcast
// sources (fan-out >= 32) are excluded — placement replicates them into
// every consuming block rather than treating them as component members.
func Components(top *automata.Topology) [][]automata.ElementID {
	broadcast := broadcastSet(top)
	return automata.Components(top, func(id automata.ElementID) bool { return broadcast[id] })
}

// broadcastSet flags the replicated high-fan-out sources.
func broadcastSet(top *automata.Topology) []bool {
	out := make([]bool, top.Len())
	for id := automata.ElementID(0); id < automata.ElementID(top.Len()); id++ {
		if top.Kind(id) == automata.KindSTE && len(top.Outs(id)) >= broadcastFanOut {
			out[id] = true
		}
	}
	return out
}

// ---------------------------------------------------------------- internals

type partitioner struct {
	// net is the frozen work network, carried only into Placement.Network;
	// all graph reads go through top, its struct-of-arrays topology.
	net *automata.Network
	top *automata.Topology
	cfg Config

	broadcast  []bool // replicated high-fan-out sources
	nBroadcast int
	// capacity is one block's budget after reserving a replica slot for
	// every broadcast source.
	capacity ap.BlockUsage

	blockOf []int
	// assignOrder records elements in the order they were packed; row
	// layout within each block follows this order.
	assignOrder []automata.ElementID
	// usage and routing-line consumption per block.
	usage  []ap.BlockUsage
	brUsed []int
	// blockOwner labels each block with the component that opened it, so
	// capacity errors name the component that failed to fit rather than
	// whatever merged last.
	blockOwner []string
	// preRow pre-assigns rows for stamped elements (-1 = packed by
	// assignRows). nil when stamping is disabled.
	preRow []int
	// stamped counts component instances placed by the stamping path.
	stamped int
	// arena holds pooled scratch buffers; set by Place for the lifetime
	// of one placement.
	arena *placeArena
}

// firstFitWindow bounds how many open blocks first-fit packing scans,
// keeping the baseline flow linear in design size.
const firstFitWindow = 64

// groupTargetBlocks sizes the parallel placement groups: components are
// chunked at roughly this many blocks' worth of STEs per group. Small and
// medium designs land in a single group — bit-for-bit the serial
// algorithm — while board-scale designs split into enough groups to
// occupy the worker pool. Boundaries depend only on the (deterministic)
// component order, never on the worker count.
const groupTargetBlocks = 8

func newPartitioner(net *automata.Network, top *automata.Topology, cfg Config) *partitioner {
	p := &partitioner{
		net:     net,
		top:     top,
		cfg:     cfg,
		blockOf: make([]int, top.Len()),
	}
	p.broadcast = broadcastSet(top)
	for id := 0; id < top.Len(); id++ {
		p.blockOf[id] = -1
		if p.broadcast[id] {
			p.nBroadcast++
		}
	}
	p.capacity = ap.BlockUsage{
		STEs:     firstGen.STEsPerBlock() - p.nBroadcast, // broadcast replicas
		Counters: firstGen.CountersPerBlock,
		Boolean:  firstGen.BooleanPerBlock,
	}
	if p.capacity.STEs < 1 {
		p.capacity.STEs = 1
	}
	if cfg.Stamper != nil {
		p.preRow = make([]int, top.Len())
		for i := range p.preRow {
			p.preRow[i] = -1
		}
	}
	return p
}

func (p *partitioner) fits(u ap.BlockUsage) bool {
	return u.STEs <= p.capacity.STEs && u.Counters <= p.capacity.Counters && u.Boolean <= p.capacity.Boolean
}

// components returns the connected components of the non-broadcast
// subgraph in the shared deterministic depth-first order (see
// automata.Components for why that order is routing-friendly). Designs
// without broadcast elements — the common case — skip nothing, which
// spares the traversal a closure call per edge.
func (p *partitioner) components() [][]automata.ElementID {
	if p.nBroadcast == 0 {
		return automata.ComponentsScratch(p.top, nil, &p.arena.comps)
	}
	return automata.ComponentsScratch(p.top, func(id automata.ElementID) bool { return p.broadcast[id] }, &p.arena.comps)
}

// componentLabel names a component for diagnostics: the provenance or
// symbolic name of its root element when one exists, otherwise a
// synthetic id-range label. Capacity errors surface it so operators see
// which rule failed to fit, not which one merged last.
func componentLabel(top *automata.Topology, comp []automata.ElementID) string {
	root := comp[0]
	if o := top.Origin(root); o != "" {
		return o
	}
	if n := top.NameOf(root); n != "" {
		return n
	}
	return fmt.Sprintf("component@%d (%d elements)", root, len(comp))
}

// rowLayout is the one block row model. It lays ids out sequentially in
// the given order — STEs STEsPerRow to a row, special elements dealt
// round-robin over specialRows rows — and returns each element's row, by
// index in ids, with the number of distinct sources that have an out-edge
// to another row or to an element outside ids: the block-routing lines the
// layout consumes.
func rowLayout(top *automata.Topology, ids []automata.ElementID, specialRows int, res ap.Resources) (rowOf []int, lines int) {
	rank := newRankIndex(ids)
	rowOf = make([]int, len(ids))
	steCount, specialCount := 0, 0
	for i, id := range ids {
		if top.Kind(id) == automata.KindSTE {
			rowOf[i] = steCount / res.STEsPerRow
			steCount++
		} else {
			rowOf[i] = specialCount % specialRows
			specialCount++
		}
	}
	for i, id := range ids {
		for _, e := range top.Outs(id) {
			if j := rank.of(automata.ElementID(e.Node)); j < 0 || rowOf[j] != rowOf[i] {
				lines++
				break
			}
		}
	}
	return rowOf, lines
}

// allElements lists every element of top in id order.
func allElements(top *automata.Topology) []automata.ElementID {
	ids := make([]automata.ElementID, top.Len())
	for i := range ids {
		ids[i] = automata.ElementID(i)
	}
	return ids
}

// brDemand estimates the block-routing lines a component consumes when it
// is laid out alone in a block.
func (p *partitioner) brDemand(comp []automata.ElementID) int {
	_, lines := rowLayout(p.top, comp, firstGen.RowsPerBlock, firstGen)
	return lines
}

// sizedComp is one component with its precomputed element demand.
type sizedComp struct {
	comp  []automata.ElementID
	usage ap.BlockUsage
}

// stampedComp is one component routed to the stamping path, with the
// shared footprint of its shape.
type stampedComp struct {
	comp []automata.ElementID
	fp   *Footprint
}

// place runs the full baseline flow: component discovery, the stamping
// partition, grouped parallel packing and refinement, the deterministic
// merge, and finally the stamped runs.
func (p *partitioner) place() {
	if p.arena == nil {
		p.arena = new(placeArena)
	}
	comps := p.components()
	items := make([]sizedComp, 0, len(comps))
	for _, comp := range comps {
		var u ap.BlockUsage
		for _, id := range comp {
			u.Add(ap.UsageOfKind(p.top.Kind(id)))
		}
		items = append(items, sizedComp{comp: comp, usage: u})
	}
	p.arena.sorted = sortBySTEsDesc(items, p.arena.sorted)
	grouped, stamped := p.partitionStamping(items)
	// Only grouped elements enter assignOrder (stamped rows live in
	// preRow); sizing it exactly keeps the merge growslice-free and costs
	// nothing for fully stamped designs.
	orderLen := 0
	for _, it := range grouped {
		orderLen += len(it.comp)
	}
	p.assignOrder = make([]automata.ElementID, 0, orderLen)
	groups := p.chunkGroups(grouped)
	results := p.runGroups(groups)
	// Deterministic merge: group block lists concatenate in group-index
	// order, so the final numbering is independent of which worker
	// finished first.
	for _, g := range results {
		offset := len(p.usage)
		for _, id := range g.order {
			p.blockOf[id] += offset
		}
		p.usage = append(p.usage, g.usage...)
		p.brUsed = append(p.brUsed, g.brUsed...)
		p.blockOwner = append(p.blockOwner, g.owner...)
		p.assignOrder = append(p.assignOrder, g.order...)
	}
	p.stampRuns(stamped)
}

// sortBySTEsDesc puts the components into the global first-fit-decreasing
// order, stable so the component order stays deterministic among equal
// sizes. Sizes are small integers, so a counting sort covers virtually
// every design allocation-lean and comparison-free; pathological sizes
// fall back to the stable comparison sort. scratch is reusable staging
// space; the (possibly grown) buffer is returned for the caller to keep.
func sortBySTEsDesc(items []sizedComp, scratch []sizedComp) []sizedComp {
	maxSTEs := 0
	for _, it := range items {
		if it.usage.STEs > maxSTEs {
			maxSTEs = it.usage.STEs
		}
	}
	if maxSTEs > 1<<16 {
		sort.SliceStable(items, func(i, j int) bool {
			return items[i].usage.STEs > items[j].usage.STEs
		})
		return scratch
	}
	counts := make([]int, maxSTEs+1)
	for _, it := range items {
		counts[it.usage.STEs]++
	}
	// Descending offsets: bucket maxSTEs starts at 0.
	start := 0
	for s := maxSTEs; s >= 0; s-- {
		c := counts[s]
		counts[s] = start
		start += c
	}
	if cap(scratch) < len(items) {
		scratch = make([]sizedComp, len(items))
	}
	sorted := scratch[:len(items)]
	for _, it := range items {
		sorted[counts[it.usage.STEs]] = it
		counts[it.usage.STEs]++
	}
	copy(items, sorted)
	return scratch
}

// partitionStamping splits the size-sorted items into the grouped
// baseline path and the stamping path. A component stamps when it fits a
// single block and its shape either repeats within this design or is
// already in the stamper's cross-design cache; everything else — unique
// shapes, oversized components, routing-heavy shapes — takes the grouped
// path unchanged. Returns the grouped remainder and the stamped items in
// deterministic order.
func (p *partitioner) partitionStamping(items []sizedComp) ([]sizedComp, []stampedComp) {
	st := p.cfg.Stamper
	if st == nil {
		return items, nil
	}
	if cap(p.arena.hashes) < len(items) {
		p.arena.hashes = make([]ShapeHash, len(items))
		p.arena.eligible = make([]bool, len(items))
	}
	hashes := p.arena.hashes[:len(items)]
	eligible := p.arena.eligible[:len(items)]
	counts := make(map[ShapeHash]int, len(items))
	for i, it := range items {
		eligible[i] = false
		if !p.fits(it.usage) {
			continue // multi-block components never stamp
		}
		h := shapeOf(p.top, it.comp, &p.arena.shape)
		hashes[i], eligible[i] = h, true
		counts[h]++
	}
	// Resolve each distinct stampable shape once — a macro bank has a
	// handful of shapes across hundreds of instances, so the footprint
	// cache is locked per shape, not per instance.
	local := make(map[ShapeHash]*Footprint, len(counts))
	for i, it := range items {
		if !eligible[i] {
			continue
		}
		h := hashes[i]
		if _, ok := local[h]; ok {
			continue
		}
		if counts[h] < 2 && !st.has(h) {
			// A design-unique shape keeps the grouped path (packing +
			// refinement beat the sequential footprint layout for a
			// one-off), but its footprint still seeds the cross-design
			// cache: a serving process compiling a manifest of
			// single-component rule variants stamps every design after
			// the first.
			st.footprint(h, p.top, it.comp, firstGen)
			local[h] = nil
			continue
		}
		fp := st.footprint(h, p.top, it.comp, firstGen)
		if fp.BRLines > BRLinesPerBlock || fp.Rows > firstGen.RowsPerBlock {
			fp = nil // too routing-heavy to stamp
		}
		local[h] = fp
	}
	grouped := items[:0]
	var stamped []stampedComp
	for i, it := range items {
		if !eligible[i] {
			grouped = append(grouped, it)
			continue
		}
		fp := local[hashes[i]]
		if fp == nil {
			grouped = append(grouped, it)
			continue
		}
		stamped = append(stamped, stampedComp{comp: it.comp, fp: fp})
	}
	return grouped, stamped
}

// chunkGroups cuts the size-sorted items into contiguous groups of
// roughly groupTargetBlocks blocks' worth of STEs each.
func (p *partitioner) chunkGroups(items []sizedComp) [][]sizedComp {
	target := groupTargetBlocks * p.capacity.STEs
	var groups [][]sizedComp
	var cur []sizedComp
	mass := 0
	for _, it := range items {
		cur = append(cur, it)
		mass += it.usage.STEs
		if mass >= target {
			groups = append(groups, cur)
			cur, mass = nil, 0
		}
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	return groups
}

// groupResult is one group's private block list; the merge concatenates
// them in group order and rebases the element assignments.
type groupResult struct {
	usage  []ap.BlockUsage
	brUsed []int
	owner  []string
	order  []automata.ElementID
}

// runGroups places each group on the worker pool. Workers write only
// their own group's result slot and their own elements' blockOf entries
// (components never span groups), so the only synchronization needed is
// the pool join itself.
func (p *partitioner) runGroups(groups [][]sizedComp) []*groupResult {
	results := make([]*groupResult, len(groups))
	workers := p.cfg.Parallelism
	if workers > len(groups) {
		workers = len(groups)
	}
	if workers <= 1 {
		for i, g := range groups {
			results[i] = p.placeGroup(g)
		}
		return results
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results[i] = p.placeGroup(groups[i])
			}
		}()
	}
	for i := range groups {
		work <- i
	}
	close(work)
	wg.Wait()
	return results
}

// placeGroup packs one group's components first-fit-decreasing under the
// element capacities and the block-routing budget, then refines the
// group's placement. Block ids are group-local (the merge rebases them).
// A component whose routing demand exceeds one block's budget is spread
// across several blocks, trading STE utilization for routing resources —
// exactly what the AP tool chain does for routing-heavy designs.
func (p *partitioner) placeGroup(items []sizedComp) *groupResult {
	g := &groupResult{}
	newBlock := func(label string) int {
		g.usage = append(g.usage, ap.BlockUsage{})
		g.brUsed = append(g.brUsed, 0)
		g.owner = append(g.owner, label)
		return len(g.usage) - 1
	}
	for _, it := range items {
		demand := p.brDemand(it.comp)
		if p.fits(it.usage) && demand <= BRLinesPerBlock {
			// First fit over recently opened blocks (a bounded window
			// keeps packing linear on huge designs).
			placed := false
			lo := 0
			if len(g.usage) > firstFitWindow {
				lo = len(g.usage) - firstFitWindow
			}
			for b := lo; b < len(g.usage); b++ {
				trial := g.usage[b]
				trial.Add(it.usage)
				if p.fits(trial) && g.brUsed[b]+demand <= BRLinesPerBlock {
					g.usage[b] = trial
					g.brUsed[b] += demand
					for _, id := range it.comp {
						p.blockOf[id] = b
					}
					g.order = append(g.order, it.comp...)
					placed = true
					break
				}
			}
			if placed {
				continue
			}
			b := newBlock(componentLabel(p.top, it.comp))
			g.usage[b] = it.usage
			g.brUsed[b] = demand
			for _, id := range it.comp {
				p.blockOf[id] = b
			}
			g.order = append(g.order, it.comp...)
			continue
		}
		// Oversized or routing-heavy components spill across consecutive
		// blocks in BFS order (element granularity), spreading routing
		// demand evenly.
		label := componentLabel(p.top, it.comp)
		spreadBlocks := 1
		if demand > BRLinesPerBlock {
			spreadBlocks = (demand + BRLinesPerBlock - 1) / BRLinesPerBlock
		}
		perBlockElems := (len(it.comp) + spreadBlocks - 1) / spreadBlocks
		b := newBlock(label)
		inBlock := 0
		for _, id := range it.comp {
			eu := ap.UsageOfKind(p.top.Kind(id))
			trial := g.usage[b]
			trial.Add(eu)
			if !p.fits(trial) || inBlock >= perBlockElems {
				b = newBlock(label)
				inBlock = 0
				trial = g.usage[b]
				trial.Add(eu)
			}
			g.usage[b] = trial
			p.blockOf[id] = b
			g.order = append(g.order, id)
			inBlock++
		}
	}
	// Refinement sweeps the group's elements in increasing id order —
	// with a single group this is exactly the historical global sweep.
	ids := append([]automata.ElementID(nil), g.order...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for pass := 0; pass < refinePasses; pass++ {
		if p.refineGroup(g, ids) == 0 {
			break
		}
	}
	return g
}

// refineGroup sweeps the group's elements once, moving each to the block
// holding the majority of its neighbors when that improves the cut and
// capacity allows. Returns the number of moves made. This is the
// expensive part of the baseline flow; components never span groups, so
// every neighbor either lives in this group or is a replicated broadcast
// source.
func (p *partitioner) refineGroup(g *groupResult, ids []automata.ElementID) int {
	moves := 0
	counts := make(map[int]int)
	for _, id := range ids {
		cur := p.blockOf[id]
		for k := range counts {
			delete(counts, k)
		}
		for _, edges := range [][]automata.TopoEdge{p.top.Outs(id), p.top.Ins(id)} {
			for _, e := range edges {
				other := automata.ElementID(e.Node)
				if p.broadcast[other] || other == id {
					continue
				}
				counts[p.blockOf[other]]++
			}
		}
		// Deterministic argmax: prefer the current block on ties, then
		// the lowest block id (map iteration order must not leak into
		// placement results).
		best, bestCount := cur, counts[cur]
		for b, cnt := range counts {
			if cnt > bestCount || (cnt == bestCount && b != cur && best != cur && b < best) {
				best, bestCount = b, cnt
			}
		}
		if best == cur {
			continue
		}
		eu := ap.UsageOfKind(p.top.Kind(id))
		trial := g.usage[best]
		trial.Add(eu)
		if !p.fits(trial) {
			continue
		}
		g.usage[best] = trial
		old := g.usage[cur]
		old.STEs -= eu.STEs
		old.Counters -= eu.Counters
		old.Boolean -= eu.Boolean
		g.usage[cur] = old
		p.blockOf[id] = best
		moves++
	}
	return moves
}

// newBlock opens one merged-numbering block owned by label.
func (p *partitioner) newBlock(label string) int {
	p.usage = append(p.usage, ap.BlockUsage{})
	p.brUsed = append(p.brUsed, 0)
	p.blockOwner = append(p.blockOwner, label)
	return len(p.usage) - 1
}

// stampRuns places the stamped items by translating each shape's cached
// footprint into the next free row range, opening a new block when the
// row span, element capacity, or routing budget runs out. Stamped blocks
// follow the grouped blocks in the merged numbering; the whole pass is a
// single deterministic serial sweep — its per-instance cost is a few
// slice writes, which is the entire speedup of the stamping pipeline.
func (p *partitioner) stampRuns(items []stampedComp) {
	if len(items) == 0 {
		return
	}
	cur := -1
	nextRow := 0
	for _, it := range items {
		fp := it.fp
		if cur >= 0 {
			trial := p.usage[cur]
			trial.Add(fp.Usage)
			if nextRow+fp.Rows > firstGen.RowsPerBlock || !p.fits(trial) ||
				p.brUsed[cur]+fp.BRLines > BRLinesPerBlock {
				cur = -1
			}
		}
		if cur < 0 {
			cur = p.newBlock(componentLabel(p.top, it.comp))
			nextRow = 0
		}
		for rank, id := range it.comp {
			p.blockOf[id] = cur
			p.preRow[id] = nextRow + fp.RowOf[rank]
		}
		u := p.usage[cur]
		u.Add(fp.Usage)
		p.usage[cur] = u
		p.brUsed[cur] += fp.BRLines
		nextRow += fp.Rows
		// No assignOrder append: stamped elements carry their final rows
		// in preRow, which assignRows adopts wholesale.
		p.stamped++
	}
	telPlaceStamped.Add(uint64(len(items)))
}

// finish compacts block numbering, assigns rows, and computes metrics.
func (p *partitioner) finish() (*Placement, error) {
	// Compact non-empty blocks (in first-use order by element id), carrying
	// each block's owning component along for capacity-error attribution.
	remap := make([]int, len(p.usage))
	for i := range remap {
		remap[i] = -1
	}
	owners := make([]string, 0, len(p.usage))
	for id := 0; id < p.top.Len(); id++ {
		b := p.blockOf[id]
		if b < 0 || remap[b] >= 0 {
			continue
		}
		remap[b] = len(owners)
		if b < len(p.blockOwner) {
			owners = append(owners, p.blockOwner[b])
		} else {
			owners = append(owners, "")
		}
	}
	blocks := len(owners)
	if blocks == 0 {
		blocks = 1
	}
	// Remap in place: the partitioner's working assignment is not read
	// again after compaction.
	blockOf := p.blockOf
	for id := 0; id < p.top.Len(); id++ {
		if p.broadcast[id] || blockOf[id] < 0 {
			blockOf[id] = -1
			continue
		}
		blockOf[id] = remap[blockOf[id]]
	}

	phys, err := physicalAssignment(p.top.Name, blocks, p.cfg, func(block int) string {
		if block >= 0 && block < len(owners) {
			return owners[block]
		}
		return ""
	})
	if err != nil {
		return nil, err
	}
	rowOf := assignRows(p.top, blockOf, blocks, p.assignOrder, p.preRow)
	m := computeMetrics(p.top, blockOf, rowOf, blocks, p.broadcast, p.nBroadcast)
	return &Placement{
		Network:        p.net,
		BlockOf:        blockOf,
		RowOf:          rowOf,
		PhysicalBlocks: phys,
		Stamped:        p.stamped,
		Metrics:        m,
	}, nil
}

// physicalAssignment maps the needed logical blocks onto physical board
// blocks in increasing order, and returns a typed *CapacityError when the
// board has too few. ownerOf names the component that opened a given
// logical block; the error attributes the failure to the first logical
// block without a physical home, which is deterministic regardless of
// worker completion order.
func physicalAssignment(design string, needed int, cfg Config, ownerOf func(block int) string) ([]int, error) {
	total := cfg.MaxBlocks
	if total <= 0 {
		total = firstGen.TotalBlocks()
	}
	if needed > total {
		telPlaceCapacityErrors.Inc()
		component := ""
		if ownerOf != nil {
			component = ownerOf(total)
		}
		return nil, &CapacityError{Design: design, Component: component, Needed: needed, Total: total}
	}
	phys := make([]int, needed)
	for b := range phys {
		phys[b] = b
	}
	return phys, nil
}

// assignRows packs each block's STEs into rows of STEsPerRow following the
// packing order (depth-first within components, keeping chains contiguous);
// special elements take the per-row special slots. Elements with a preRow
// entry >= 0 keep it — stamped components carry their footprint's row
// layout translated to their slot.
func assignRows(top *automata.Topology, blockOf []int, blocks int, order []automata.ElementID, preRow []int) []int {
	// rowOf doubles as the seen-marker: -1 until assigned. When the
	// stamping pass pre-assigned rows, its preRow array already has
	// exactly that shape — stamped entries >= 0, everything else -1 — so
	// it is adopted in place instead of copied.
	rowOf := preRow
	if rowOf == nil {
		rowOf = make([]int, top.Len())
		for i := range rowOf {
			rowOf[i] = -1
		}
	}
	steCount := make([]int, blocks)
	specialCount := make([]int, blocks)
	assign := func(id automata.ElementID) {
		if rowOf[id] >= 0 {
			return
		}
		b := blockOf[id]
		if b < 0 {
			rowOf[id] = 0
			return
		}
		if top.Kind(id) == automata.KindSTE {
			rowOf[id] = steCount[b] / firstGen.STEsPerRow
			steCount[b]++
		} else {
			rowOf[id] = specialCount[b] % firstGen.RowsPerBlock
			specialCount[b]++
		}
	}
	for _, id := range order {
		assign(id)
	}
	for id := automata.ElementID(0); id < automata.ElementID(top.Len()); id++ {
		assign(id)
	}
	return rowOf
}

// computeMetrics derives the Table 5 statistics from a block/row assignment.
func computeMetrics(top *automata.Topology, blockOf, rowOf []int, blocks int, broadcast []bool, nBroadcast int) Metrics {
	stats := top.Stats()
	// BR lines: distinct source signals routed through each block. One
	// source drives at most a handful of blocks, so per-source dedup uses
	// a small scratch list instead of a global (src, block) set.
	perBlock := make([]int, blocks)
	var touched []int
	for src := automata.ElementID(0); src < automata.ElementID(top.Len()); src++ {
		if broadcast[src] {
			continue // replicated locally
		}
		touched = touched[:0]
		mark := func(b int) {
			if b < 0 || b >= blocks {
				return
			}
			for _, t := range touched {
				if t == b {
					return
				}
			}
			touched = append(touched, b)
			perBlock[b]++
		}
		for _, edge := range top.Outs(src) {
			dst := automata.ElementID(edge.Node)
			sb, db := blockOf[src], blockOf[dst]
			if sb == db && rowOf[src] == rowOf[dst] {
				continue // row-local connection
			}
			mark(db)
			if sb != db {
				mark(sb)
			}
		}
	}
	var brSum float64
	for _, n := range perBlock {
		alloc := float64(n) / float64(BRLinesPerBlock)
		if alloc > 1 {
			alloc = 1
		}
		brSum += alloc
	}

	usedSTEs := stats.STEs + nBroadcast*(blocks-1) // replicas
	util := math.Min(1, float64(usedSTEs)/float64(blocks*firstGen.STEsPerBlock()))

	return Metrics{
		TotalBlocks:    blocks,
		ClockDivisor:   top.ClockDivisor(),
		STEUtilization: util,
		MeanBRAlloc:    brSum / math.Max(1, float64(blocks)),
		Elements:       top.Len(),
		STEs:           stats.STEs,
		Counters:       stats.Counters,
		Gates:          stats.Gates,
	}
}
