// Package bitvec implements the bitvector labels at the heart of the
// TIMER method (paper Sections 2-5).
//
// A label is a bitvector of up to 64 digits stored in a uint64. Digit 0
// is the least significant bit. For application-graph labels
// la = lp ∘ le (paper Eq. (7)) the convention throughout this repository
// is:
//
//	bits [0, ext)            le  — the uniqueness extension ("right part")
//	bits [ext, ext+dimGp)    lp  — the processor label ("left part")
//
// so that cutting the least significant digit first (as the hierarchy
// construction of paper Section 6 does under the identity permutation)
// first merges vertices inside the same block.
//
// 64 digits suffice for every realistic instance: the processor graphs of
// interest have dimGp ≤ 32 (a 512-node topology has at most ~32 convex
// cuts) and the extension needs ⌈log2(max block size)⌉ bits.
package bitvec

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
)

// Label is a bitvector of up to 64 digits. The dimension (number of
// meaningful digits) is carried by the surrounding context, not by the
// value.
type Label uint64

// MaxDim is the largest supported label dimension.
const MaxDim = 64

// Bit returns digit i of l (0 = least significant).
func (l Label) Bit(i int) uint64 { return (uint64(l) >> uint(i)) & 1 }

// SetBit returns l with digit i set to b (0 or 1).
func (l Label) SetBit(i int, b uint64) Label {
	mask := uint64(1) << uint(i)
	return Label((uint64(l) &^ mask) | (b&1)<<uint(i))
}

// FlipBit returns l with digit i inverted.
func (l Label) FlipBit(i int) Label { return l ^ Label(uint64(1)<<uint(i)) }

// Hamming returns the Hamming distance between a and b.
func Hamming(a, b Label) int { return bits.OnesCount64(uint64(a ^ b)) }

// HammingMasked returns the Hamming distance between a and b restricted
// to the digit positions selected by mask.
func HammingMasked(a, b Label, mask uint64) int {
	return bits.OnesCount64(uint64(a^b) & mask)
}

// SignedCost computes Σ_j sign(j)·[a_j ≠ b_j] where sign(j) is +1 for
// digits selected by plusMask and −1 for digits selected by minusMask.
// This is the per-edge contribution to Coco+ (paper Eq. (14)): lp digits
// carry +1 (Coco, Eq. (9)), le digits carry −1 (Div, Eq. (12)).
func SignedCost(a, b Label, plusMask, minusMask uint64) int {
	x := uint64(a ^ b)
	return bits.OnesCount64(x&plusMask) - bits.OnesCount64(x&minusMask)
}

// Mask returns a mask selecting digit positions [lo, hi).
func Mask(lo, hi int) uint64 {
	if lo < 0 || hi < lo || hi > MaxDim {
		panic(fmt.Sprintf("bitvec: bad mask range [%d,%d)", lo, hi))
	}
	if hi == MaxDim {
		if lo == 0 {
			return ^uint64(0)
		}
		return ^uint64(0) << uint(lo)
	}
	return (uint64(1)<<uint(hi) - 1) &^ (uint64(1)<<uint(lo) - 1)
}

// String formats l as a binary string of the given dimension, most
// significant digit first (the paper's printing order, cf. Figure 2).
func (l Label) String(dim int) string {
	var sb strings.Builder
	for i := dim - 1; i >= 0; i-- {
		if l.Bit(i) == 1 {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Parse converts a binary string (most significant digit first) into a
// Label.
func Parse(s string) (Label, error) {
	if len(s) > MaxDim {
		return 0, fmt.Errorf("bitvec: label %q longer than %d digits", s, MaxDim)
	}
	var l Label
	for _, c := range s {
		switch c {
		case '0':
			l <<= 1
		case '1':
			l = l<<1 | 1
		default:
			return 0, fmt.Errorf("bitvec: invalid digit %q in label %q", c, s)
		}
	}
	return l, nil
}

// MustParse is Parse that panics on error; for tests and examples.
func MustParse(s string) Label {
	l, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return l
}

// Permutation is a bijection on digit positions {0, ..., dim-1}.
// Applying it builds the permuted label l' with l'[j] = l[p[j]]
// (paper Section 6.1, line 7 of Algorithm 1: la ← π(la)).
type Permutation []uint8

// Identity returns the identity permutation on dim digits.
func Identity(dim int) Permutation {
	p := make(Permutation, dim)
	for i := range p {
		p[i] = uint8(i)
	}
	return p
}

// Reverse returns the digit-reversing permutation, which induces the
// "opposite hierarchy" of the identity (paper Figure 2).
func Reverse(dim int) Permutation {
	p := make(Permutation, dim)
	for i := range p {
		p[i] = uint8(dim - 1 - i)
	}
	return p
}

// Random returns a uniformly random permutation on dim digits.
func Random(rng *rand.Rand, dim int) Permutation {
	return RandomInto(rng, make(Permutation, dim))
}

// RandomInto is Random on len(p) digits, written into p. It consumes
// the same rng stream as Random and returns p.
func RandomInto(rng *rand.Rand, p Permutation) Permutation {
	for i := range p {
		p[i] = uint8(i)
	}
	rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Valid reports whether p is a bijection on {0, ..., len(p)-1}.
func (p Permutation) Valid() bool {
	seen := uint64(0)
	for _, x := range p {
		if int(x) >= len(p) {
			return false
		}
		if seen&(1<<x) != 0 {
			return false
		}
		seen |= 1 << x
	}
	return true
}

// Apply permutes the digits of l: result digit j = l digit p[j].
func (p Permutation) Apply(l Label) Label {
	var r Label
	for j, src := range p {
		r |= Label(l.Bit(int(src))) << uint(j)
	}
	return r
}

// Inverse returns the inverse permutation.
func (p Permutation) Inverse() Permutation {
	inv := make(Permutation, len(p))
	for j, src := range p {
		inv[src] = uint8(j)
	}
	return inv
}

// ApplyMask permutes a digit-position mask the same way Apply permutes
// labels, so that masks and labels stay consistent under permutation.
func (p Permutation) ApplyMask(mask uint64) uint64 {
	var r uint64
	for j, src := range p {
		r |= (mask >> src & 1) << uint(j)
	}
	return r
}
