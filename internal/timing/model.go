// Package timing defines the latency cost model of the simulated SCC.
//
// Every latency-bearing action in the simulator (cache hits and misses,
// message-passing-buffer accesses, mesh traversals, per-call software
// overhead of the communication libraries) is priced by a Model. The
// hardware parameters come from the paper and the SCC documentation it
// cites; the software-overhead parameters are calibrated so that a single
// Allreduce reproduces the step-by-step speedups the paper reports in
// Section IV (+25 % non-blocking, +65 % lightweight, +28 % balanced,
// +10 % MPB-direct). See DESIGN.md §1 and EXPERIMENTS.md for the
// calibration record.
package timing

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"

	"scc/internal/simtime"
)

// Flag-region layout constants shared by the timing model and the RCCE
// layer above it. Every writer owns exactly one cache line in every
// core's MPB, as in RCCE; these count the bytes of that line in use.
const (
	// FlagFixedRoles counts the fixed-position flag roles at the start
	// of every per-writer flag line (sent/ready, barrier, MPB-direct
	// double-buffer, checksum, progress, group/vote/epoch arrive-release,
	// the tree Broadcast's release and member release — see internal/rcce).
	FlagFixedRoles = 21
	// FlagViewEpochBytes is the width of the agreed-epoch word that
	// follows the fixed roles (little-endian uint32).
	FlagViewEpochBytes = 4
	// FlagLineBytes is what a flag line must hold: the fixed roles, the
	// epoch word, the tree Broadcast's ack and the tree barrier's
	// arrive/release pair. Validate rejects cache lines narrower than that.
	FlagLineBytes = FlagFixedRoles + FlagViewEpochBytes + 1 + 2
	// minGapLines is the floor of the reserved gap between each core's
	// flag lines and its chunk data region. The gap holds the core's view
	// slot (the membership bitmap it publishes as a self-heal vote
	// root); it is at least four lines because the calibrated chunk size
	// depends on it (6,528 B at 48 cores), and reclaiming it would move
	// every measured latency.
	minGapLines = 4
	// maxMPBSpace bounds the chip-wide MPB address space: ~9000x the
	// largest supported topology, far from wrapping an int offset.
	maxMPBSpace = 1 << 56
)

// Model holds every tunable latency parameter of the simulated chip and
// software stack. Use Default for the paper's configuration ("standard
// preset": cores at 533 MHz, mesh and DRAM at 800 MHz) or Topology for
// an arbitrary mesh geometry derived from it.
type Model struct {
	// ---- Geometry (the SCC design fixes these to 6x4x2, Section II;
	// Topology() builds consistent variants) ----

	MeshWidth    int // tiles per row
	MeshHeight   int // tile rows
	CoresPerTile int
	// MPBBytesPerCore is the per-core share of the on-die SRAM
	// (8 KB per core on the SCC: 16 KB per tile, 384 KB total).
	MPBBytesPerCore int
	// CacheLineBytes is the L1/L2 line size and the write-combining
	// granularity (32 B = 4 doubles). This produces the period-4
	// latency spikes of Fig. 9.
	CacheLineBytes int
	// L1DataBytes and L2Bytes size the private-memory cache model
	// (16 KB L1D, 256 KB L2 per core).
	L1DataBytes int
	L2Bytes     int

	// ---- Hardware latencies ----

	// L1HitCoreCycles is the load-to-use latency of an L1 data hit.
	L1HitCoreCycles int64
	// L2HitCoreCycles is the penalty of an L1 miss that hits in L2
	// (~18 core cycles on the P54C/SCC tile).
	L2HitCoreCycles int64
	// DRAMBaseCoreCycles + MeshHopRoundTripMeshCycles*d + DRAMAccessDRAMCycles
	// price an off-chip access: the paper gives "40 core cycles + 8d mesh
	// cycles, where d is the number of hops between core and memory
	// controller" (Sec. IV-D); DRAMAccessDRAMCycles adds the DDR3 array
	// access itself.
	DRAMBaseCoreCycles   int64
	DRAMAccessDRAMCycles int64
	// MPBLocalFastCoreCycles is a local MPB access without the hardware
	// bug workaround: 15 core cycles (Sec. IV-D).
	MPBLocalFastCoreCycles int64
	// MPBLocalBugCoreCycles/...MeshCycles is a local MPB access with the
	// erratum workaround (core sends a packet to itself): 45 core cycles
	// plus 8 mesh cycles (Sec. IV-D).
	MPBLocalBugCoreCycles int64
	MPBLocalBugMeshCycles int64
	// MPBRemoteBaseCoreCycles is the core-side cost of a remote MPB
	// access; the mesh adds MeshHopRoundTripMeshCycles per hop for reads
	// (round trip) and half that for posted writes.
	MPBRemoteBaseCoreCycles    int64
	MeshHopRoundTripMeshCycles int64
	// MeshLinkBytesPerCycle is the link width used for serialization /
	// occupancy of multi-line transfers (16 B flits at mesh clock).
	MeshLinkBytesPerCycle int
	// HardwareBugFixed, when true, removes the local-MPB erratum
	// workaround (the ablation the paper predicts would make the
	// MPB-direct Allreduce win clearly).
	HardwareBugFixed bool

	// ---- Data movement (per cache line of 32 B) ----

	// PutLineCoreCycles is the core-side cost of staging one line from
	// private memory (cached) into an MPB through the write-combining
	// buffer, excluding mesh and MPB-port costs.
	PutLineCoreCycles int64
	// GetLineCoreCycles is the core-side cost of landing one line read
	// from an MPB into private memory.
	GetLineCoreCycles int64
	// ReducePerElementCoreCycles prices one double-precision reduction
	// step (load two operands, FP add, store) on the P54C when both
	// operands live in cached private memory.
	ReducePerElementCoreCycles int64
	// MPBReducePerElementCoreCycles prices one reduction step of the
	// MPB-direct loop (Sec. IV-D) on the *bug-afflicted* chip: the
	// erratum workaround turns every local MPB store into a self-routed
	// packet (no write combining), so each result element pays a
	// per-word port transaction on top of the FPU work. This is why the
	// paper measures only ~10% benefit for the MPB variant.
	MPBReducePerElementCoreCycles int64
	// MPBReduceFixedPerElementCoreCycles prices the same step with the
	// hardware bug fixed: stores combine into 15-cycle line writes
	// again and mostly the FPU work remains - the regime in which the
	// paper expects "significantly higher speedups".
	MPBReduceFixedPerElementCoreCycles int64

	// ---- Software per-call overhead (core cycles) ----
	// These are the calibrated constants; everything above is hardware.

	// OverheadBlockingCall: one RCCE_send or RCCE_recv invocation
	// (argument checking, flag bookkeeping, L1 MPB-type invalidation).
	OverheadBlockingCall int64
	// OverheadIRCCEPost: one iRCCE_isend/irecv invocation including the
	// request allocation and pending-list insertion the paper blames
	// for iRCCE's low efficiency (Sec. IV-B).
	OverheadIRCCEPost int64
	// OverheadIRCCEWait: per-request completion cost inside
	// iRCCE_wait/waitall (list removal, dynamic memory release).
	OverheadIRCCEWait int64
	// OverheadLightweightPost / Wait: the paper's lightweight primitives
	// (one static slot, no lists, no allocation).
	OverheadLightweightPost int64
	OverheadLightweightWait int64
	// OverheadPartialLineCall is the extra communication-function call
	// RCCE makes when a message is not a multiple of one cache line
	// (write-combining padding, Sec. V-A) - the source of the spikes.
	OverheadPartialLineCall int64
	// OverheadRCKMPICall is RCKMPI's per point-to-point operation
	// software cost (full MPICH layering: request objects, matching
	// queues, datatype engine).
	OverheadRCKMPICall int64
	// RCKMPIPerByteCoreCycles replaces line-granular staging in RCKMPI's
	// channel: a smooth per-byte cost (no padding call), which is why
	// its curve in Fig. 9 has no period-4 spikes.
	RCKMPIPerByteCoreCycles int64

	// ---- Recovery protocol overhead (core cycles) ----
	// Costs of the hardened (fault-tolerant) point-to-point protocol:
	// sequence numbers, per-chunk checksums and retransmit-with-backoff.
	// Recovery latency is a measured quantity, so every defensive action
	// is priced here rather than being free.

	// ChecksumPerLineCoreCycles prices checksumming one 32 B cache line
	// of payload (CRC-32C over the staged chunk, both sides).
	ChecksumPerLineCoreCycles int64
	// OverheadTimeoutCheck is the bookkeeping cost of arming/expiring one
	// bounded flag wait (deadline computation, backoff update).
	OverheadTimeoutCheck int64
	// OverheadRetransmit is the sender-side cost of re-staging a chunk
	// after a timeout or NACK, excluding the data movement itself (which
	// is re-charged at normal Put/mesh rates).
	OverheadRetransmit int64

	// ---- Application compute throughput ----

	// FlopCoreCycles prices one double-precision floating-point
	// operation (incl. operand loads) in GCMC's energy loops on the
	// P54C (no SSE, blocking FPU).
	FlopCoreCycles int64
	// TrigCoreCycles prices one sin/cos evaluation (x87 FSIN/FCOS).
	TrigCoreCycles int64

	// ---- Inter-chip fabric (internal/fabric) ----
	// A multi-chip System joins K chips through a slower serial fabric
	// between per-chip gateway cores. The cost model mirrors a mesh
	// link: per-message base latency, serialization at the fabric width,
	// and link occupancy so overlapping messages queue.

	// FabricBaseLatencyMeshCycles is the head latency of one inter-chip
	// message (board traces, SerDes, protocol framing) in mesh cycles.
	FabricBaseLatencyMeshCycles int64
	// FabricBytesPerMeshCycle is the inter-chip link width used for
	// serialization and occupancy (much narrower than a mesh link).
	FabricBytesPerMeshCycle int
	// FabricPerMessageCoreCycles is the gateway core's software cost of
	// posting or draining one fabric message.
	FabricPerMessageCoreCycles int64
}

// Default returns the model for the paper's experimental setup. Hardware
// numbers are from the paper (Sections II, IV-D and V) and the SCC
// programmer's guide it cites; software overheads are calibrated against
// the paper's reported per-step speedups.
func Default() *Model {
	return &Model{
		MeshWidth:       6,
		MeshHeight:      4,
		CoresPerTile:    2,
		MPBBytesPerCore: 8192,
		CacheLineBytes:  32,
		L1DataBytes:     16 * 1024,
		L2Bytes:         256 * 1024,

		L1HitCoreCycles:      1,
		L2HitCoreCycles:      18,
		DRAMBaseCoreCycles:   40,
		DRAMAccessDRAMCycles: 30,

		MPBLocalFastCoreCycles:     15,
		MPBLocalBugCoreCycles:      45,
		MPBLocalBugMeshCycles:      8,
		MPBRemoteBaseCoreCycles:    45,
		MeshHopRoundTripMeshCycles: 8,
		MeshLinkBytesPerCycle:      16,

		PutLineCoreCycles:                  100,
		GetLineCoreCycles:                  260,
		ReducePerElementCoreCycles:         18,
		MPBReducePerElementCoreCycles:      340,
		MPBReduceFixedPerElementCoreCycles: 60,

		OverheadBlockingCall:    2000,
		OverheadIRCCEPost:       1800,
		OverheadIRCCEWait:       1700,
		OverheadLightweightPost: 520,
		OverheadLightweightWait: 450,
		OverheadPartialLineCall: 250,
		OverheadRCKMPICall:      32000,
		RCKMPIPerByteCoreCycles: 6,

		ChecksumPerLineCoreCycles: 20,
		OverheadTimeoutCheck:      60,
		OverheadRetransmit:        800,

		FlopCoreCycles: 5,
		TrigCoreCycles: 100,

		FabricBaseLatencyMeshCycles: 2000,
		FabricBytesPerMeshCycle:     2,
		FabricPerMessageCoreCycles:  1200,
	}
}

// Topology derives a model for an arbitrary rows x cols mesh with
// coresPerTile cores per tile from the paper's Default calibration: all
// latency constants are kept, while the per-core MPB is resized so the
// layout invariants hold at the new core count. The MPB grows in
// default-sized (8 KB) steps to the smallest size whose chunk data
// region, behind one flag line per writer and the reserved gap, is at
// least as large as the default chip's. Called with the default
// geometry (4 rows, 6 cols, 2 cores/tile) it returns a model identical
// to Default().
func Topology(rows, cols, coresPerTile int) *Model {
	m := Default()
	m.MeshHeight = rows
	m.MeshWidth = cols
	m.CoresPerTile = coresPerTile
	step := m.MPBBytesPerCore
	if flags, ok := mulInt(rows, cols, coresPerTile, m.CacheLineBytes); ok && flags <= maxMPBSpace {
		need := flags + m.GapLines()*m.CacheLineBytes + Default().MPBDataBytes()
		m.MPBBytesPerCore = (need + step - 1) / step * step
	}
	return m // an empty or unaddressable mesh keeps 8 KB; Validate rejects it
}

// MeshSpec renders the geometry as ROWSxCOLSxCORES_PER_TILE, the syntax
// of the -mesh flag ("4x6x2" for the paper's chip).
func (m *Model) MeshSpec() string {
	return fmt.Sprintf("%dx%dx%d", m.MeshHeight, m.MeshWidth, m.CoresPerTile)
}

// ParseMeshSpec parses MeshSpec's ROWSxCOLSxCORES_PER_TILE, or ROWSxCOLS
// with one core per tile, into a validated Topology model. A syntax
// error names only the fault, with no "timing:" prefix, for flag parsers.
func ParseMeshSpec(spec string) (*Model, error) {
	parts := strings.Split(spec, "x")
	if len(parts) != 2 && len(parts) != 3 {
		return nil, errors.New("want ROWSxCOLS or ROWSxCOLSxCORES_PER_TILE, e.g. 100x100 or 4x6x2")
	}
	dims := [3]int{0, 0, 1} // cores per tile defaults to 1
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("%q is not an integer", p)
		}
		if v < 1 {
			return nil, fmt.Errorf("dimension %d must be positive", v)
		}
		dims[i] = v
	}
	m := Topology(dims[0], dims[1], dims[2])
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// NumTiles returns the tile count of the mesh.
func (m *Model) NumTiles() int { return m.MeshWidth * m.MeshHeight }

// NumCores returns the core count of the chip. It wraps for meshes whose
// core count exceeds an int; Validate rejects those.
func (m *Model) NumCores() int { return m.NumTiles() * m.CoresPerTile }

// MPBTotalBytes returns the size of the chip-wide MPB SRAM.
func (m *Model) MPBTotalBytes() int { return m.NumCores() * m.MPBBytesPerCore }

// Lines returns how many cache lines n bytes occupy (rounded up).
func (m *Model) Lines(nBytes int) int {
	return (nBytes + m.CacheLineBytes - 1) / m.CacheLineBytes
}

// FlagBytesPerWriter returns the size of one writer's flag region in
// every core's MPB: one cache line at every geometry.
func (m *Model) FlagBytesPerWriter() int { return m.CacheLineBytes }

// ViewBitmapBytes returns the size of the membership view bitmap a
// self-heal vote root publishes in its view slot: one bit per core.
func (m *Model) ViewBitmapBytes() int { return (m.NumCores() + 7) / 8 }

// ViewSlot returns the offset, within a core's MPB, of its view slot:
// the first byte behind the NumCores flag lines, where the reserved gap
// starts.
func (m *Model) ViewSlot() int { return m.NumCores() * m.FlagBytesPerWriter() }

// GapLines returns the reserved gap between the flag lines and the chunk
// data region, in cache lines: large enough for the view bitmap, and
// never below minGapLines.
func (m *Model) GapLines() int { return max(minGapLines, m.Lines(m.ViewBitmapBytes())) }

// MPBDataBytes returns the usable chunk-data capacity of each core's
// MPB after the per-writer flag lines and the reserved gap.
func (m *Model) MPBDataBytes() int {
	return m.MPBBytesPerCore - m.ViewSlot() - m.GapLines()*m.CacheLineBytes
}

// mulInt returns the product of non-negative factors and whether it
// fits in an int.
func mulInt(factors ...int) (int, bool) {
	p := uint64(1)
	for _, f := range factors {
		hi, lo := bits.Mul64(p, uint64(f))
		if f < 0 || hi != 0 || lo > math.MaxInt {
			return 0, false
		}
		p = lo
	}
	return int(p), true
}

// --- Composite latencies ---

// L1Hit returns the latency of an L1 data-cache hit.
func (m *Model) L1Hit() simtime.Duration { return simtime.CoreCycles(m.L1HitCoreCycles) }

// L2Hit returns the latency of an L1 miss that hits in L2.
func (m *Model) L2Hit() simtime.Duration {
	return simtime.CoreCycles(m.L1HitCoreCycles + m.L2HitCoreCycles)
}

// DRAMAccess returns the latency of an off-chip access from a core d mesh
// hops away from its memory controller.
func (m *Model) DRAMAccess(hops int) simtime.Duration {
	return simtime.CoreCycles(m.DRAMBaseCoreCycles) +
		simtime.MeshCycles(m.MeshHopRoundTripMeshCycles*int64(hops)) +
		simtime.MeshCycles(m.DRAMAccessDRAMCycles)
}

// MPBAccess returns the core-observed latency of one line-sized MPB
// access. hops is the mesh distance between the requesting core's tile
// and the MPB's tile (0 = the core's own tile). read selects a round-trip
// (load) versus a posted write.
func (m *Model) MPBAccess(hops int, read bool) simtime.Duration {
	if hops == 0 {
		if m.HardwareBugFixed {
			return simtime.CoreCycles(m.MPBLocalFastCoreCycles)
		}
		// Erratum workaround: the core routes a packet to itself.
		return simtime.CoreCycles(m.MPBLocalBugCoreCycles) +
			simtime.MeshCycles(m.MPBLocalBugMeshCycles)
	}
	mesh := m.MeshHopRoundTripMeshCycles * int64(hops)
	if !read {
		mesh /= 2 // posted write: one-way
		return simtime.CoreCycles(m.MPBLocalFastCoreCycles) + simtime.MeshCycles(mesh)
	}
	return simtime.CoreCycles(m.MPBRemoteBaseCoreCycles) + simtime.MeshCycles(mesh)
}

// LineSerializationMeshCycles returns how many mesh cycles one cache line
// occupies a link.
func (m *Model) LineSerializationMeshCycles() int64 {
	return int64((m.CacheLineBytes + m.MeshLinkBytesPerCycle - 1) / m.MeshLinkBytesPerCycle)
}

// Validate checks the model for impossible configurations, including
// the geometry-dependent MPB layout invariants: a cache line must hold a
// writer's flag roles, the chip-wide MPB must be addressable with int
// offsets, and reserving NumCores flag lines plus the gap per core must
// still leave a non-empty chunk data region.
func (m *Model) Validate() error {
	switch {
	case m.MeshWidth <= 0 || m.MeshHeight <= 0:
		return errf("mesh dimensions must be positive, got %dx%d (at least one tile required)",
			m.MeshWidth, m.MeshHeight)
	case m.CoresPerTile <= 0:
		return errf("cores per tile must be positive, got %d", m.CoresPerTile)
	case m.CacheLineBytes < FlagLineBytes || m.CacheLineBytes%8 != 0:
		return errf("cache line must be a multiple of 8 holding the %d flag-line bytes, got %d",
			FlagLineBytes, m.CacheLineBytes)
	case m.MPBBytesPerCore < 4*m.CacheLineBytes:
		return errf("MPB per core too small: %d bytes", m.MPBBytesPerCore)
	case m.L1DataBytes < m.CacheLineBytes || m.L2Bytes < m.L1DataBytes:
		return errf("cache hierarchy sizes invalid: L1=%d L2=%d", m.L1DataBytes, m.L2Bytes)
	case m.MeshLinkBytesPerCycle <= 0:
		return errf("mesh link width must be positive, got %d", m.MeshLinkBytesPerCycle)
	}
	// The chip-wide MPB address space is NumCores x MPBBytesPerCore and
	// must stay int-addressable: the MPB arena, offset arithmetic, and
	// flag indexing all use int offsets. The space is virtual (sparse
	// storage allocates only touched pages). Checked before anything
	// multiplies the core count, so no layout product below can wrap.
	if total, ok := mulInt(m.MeshWidth, m.MeshHeight, m.CoresPerTile, m.MPBBytesPerCore); !ok || total > maxMPBSpace {
		return errf("MPB address space of a %s mesh x %d bytes per core overflows the addressable range",
			m.MeshSpec(), m.MPBBytesPerCore)
	}
	if m.MPBDataBytes() <= 0 {
		return errf("MPB layout leaves no data region: %d cores x %d-byte flag lines + %d reserved gap lines exceed %d bytes per core",
			m.NumCores(), m.FlagBytesPerWriter(), m.GapLines(), m.MPBBytesPerCore)
	}
	return nil
}

func errf(format string, args ...interface{}) error {
	return fmt.Errorf("timing: "+format, args...)
}
