package synth

import (
	"math/bits"
	"strconv"
)

// halvingDoubling emits the chunked Rabenseifner allreduce for a
// power-of-two communicator: j = log2(chunks) recursive-halving
// exchange steps (each pair splits the chunk space and combines half),
// then log2(np) - j recursive-doubling steps on each rank's remaining
// chunk set within its subcube, then j allgather steps mirroring the
// halving. Per rank it moves 2*(chunks-1)/chunks + (log2(np)-j)/chunks
// vectors of data versus recursive doubling's log2(np) — the
// bandwidth-optimal end of the Pareto frontier — at the price of more
// steps and smaller messages. Returns nil when np is not a power of two
// or chunks does not divide the rank space.
func halvingDoubling(np, chunks int) *Schedule {
	if np < 2 || bits.OnesCount(uint(np)) != 1 {
		return nil
	}
	if chunks < 2 || bits.OnesCount(uint(chunks)) != 1 || chunks > np {
		return nil
	}
	k := bits.TrailingZeros(uint(np))     // log2 np
	j := bits.TrailingZeros(uint(chunks)) // log2 chunks

	// owned[r] is the chunk set rank r still reduces, as a contiguous
	// range [lo, lo+width) of chunk indices. Halving step i splits the
	// range by bit j-1-i of the chunk index, matching bit k-1-i of the
	// rank: the top j bits of a rank select its final chunk.
	type span struct{ lo, width int }
	owned := make([]span, np)
	for r := range owned {
		owned[r] = span{0, chunks}
	}
	var steps [][]Move

	// Phase 1: recursive halving. Pairs differ in rank bit k-1-i; each
	// side keeps the half of its span whose chunk bit j-1-i matches its
	// own rank bit and sends the other half to the partner (Combine).
	for i := 0; i < j; i++ {
		var step []Move
		for r := 0; r < np; r++ {
			p := r ^ (1 << uint(k-1-i))
			if p < r {
				continue // emit each pair once, lower rank first
			}
			half := owned[r].width / 2
			for _, pair := range [][2]int{{r, p}, {p, r}} {
				from, to := pair[0], pair[1]
				fromHi := (from >> uint(k-1-i)) & 1
				// from sends the half it does NOT keep: the half whose
				// chunk bit is 1-fromHi.
				start := owned[from].lo
				if fromHi == 0 {
					start += half // keeps low half, sends high half
				}
				for c := start; c < start+half; c++ {
					step = append(step, Move{Chunk: c, From: from, To: to, Kind: Combine})
				}
			}
		}
		steps = append(steps, step)
		for r := 0; r < np; r++ {
			half := owned[r].width / 2
			if (r>>uint(k-1-i))&1 == 1 {
				owned[r].lo += half
			}
			owned[r].width = half
		}
	}

	// Phase 2: recursive doubling within each subcube (ranks sharing
	// the top j bits own the same single... in general the same span)
	// over the remaining k-j dimensions: full-span exchange+combine.
	for i := j; i < k; i++ {
		var step []Move
		for r := 0; r < np; r++ {
			p := r ^ (1 << uint(k-1-i))
			if p < r {
				continue
			}
			for c := owned[r].lo; c < owned[r].lo+owned[r].width; c++ {
				step = append(step,
					Move{Chunk: c, From: r, To: p, Kind: Combine},
					Move{Chunk: c, From: p, To: r, Kind: Combine})
			}
		}
		steps = append(steps, step)
	}

	// Phase 3: allgather, mirroring the halving steps in reverse: each
	// pair copies its fully-reduced span to the partner, doubling spans
	// back to the whole chunk space.
	for i := j - 1; i >= 0; i-- {
		var step []Move
		for r := 0; r < np; r++ {
			p := r ^ (1 << uint(k-1-i))
			if p < r {
				continue
			}
			for _, pair := range [][2]int{{r, p}, {p, r}} {
				from, to := pair[0], pair[1]
				for c := owned[from].lo; c < owned[from].lo+owned[from].width; c++ {
					step = append(step, Move{Chunk: c, From: from, To: to, Kind: Copy})
				}
			}
		}
		steps = append(steps, step)
		merged := make([]span, np)
		for r := 0; r < np; r++ {
			p := r ^ (1 << uint(k-1-i))
			lo := owned[r].lo
			if owned[p].lo < lo {
				lo = owned[p].lo
			}
			merged[r] = span{lo, owned[r].width * 2}
		}
		owned = merged
	}

	return &Schedule{
		Chunks: chunks,
		Steps:  steps,
		Gen:    "hd:" + strconv.Itoa(chunks),
	}
}
