package pcm

import (
	"math/bits"

	"repro/internal/bitutil"
)

// EnergyModel holds per-transition write energies in picojoules.
//
// Table I of the paper classifies MLC symbol transitions qualitatively:
// writing any NEW symbol whose right digit is 1 (the intermediate
// resistance states 01 and 11) is "high" energy, every other actual
// transition is "low", and the diagonal (no state change) costs nothing
// because differential write skips unchanged cells. The paper's
// introduction states the asymmetry "can vary by an order of magnitude"
// for MLC, so the defaults below use a 10x ratio. Absolute values are
// calibrated to the scale of the prototype MLC PCM energies reported by
// Wang et al. [41] (tens of pJ per intermediate-state program); only
// ratios matter for every comparison in the paper.
type EnergyModel struct {
	// MLCHighPJ is the energy to program an MLC cell into an
	// intermediate state (new right digit = 1): full SET+RESET preamble
	// plus program-and-verify.
	MLCHighPJ float64
	// MLCLowPJ is the energy to program an MLC cell into an extreme
	// state (new right digit = 0) when the symbol actually changes.
	MLCLowPJ float64
	// SLCSetPJ is the energy of a SLC SET (write '1': long, low-current
	// crystallizing pulse).
	SLCSetPJ float64
	// SLCResetPJ is the energy of a SLC RESET (write '0': short,
	// high-current melt pulse). RESET is the costlier, wear-dominant
	// operation.
	SLCResetPJ float64
}

// DefaultEnergy is the model used by every experiment unless a driver
// overrides it.
var DefaultEnergy = EnergyModel{
	MLCHighPJ:  40.0,
	MLCLowPJ:   4.0,
	SLCSetPJ:   13.5,
	SLCResetPJ: 19.2,
}

// evenMask/oddMask select the right (even bit positions) and left (odd
// bit positions) digits of the 32 MLC symbols in a 64-bit word.
const (
	evenMask = 0x5555555555555555
	oddMask  = 0xAAAAAAAAAAAAAAAA
)

// MLCSymbolEnergy returns the energy (pJ) of writing symbol new over
// symbol old in a single MLC cell, per Table I.
func (e EnergyModel) MLCSymbolEnergy(old, new uint8) float64 {
	old &= 3
	new &= 3
	if old == new {
		return 0
	}
	if new&1 == 1 {
		return e.MLCHighPJ
	}
	return e.MLCLowPJ
}

// MLCWordEnergy returns the total energy (pJ) of writing the 64-bit word
// new over old across the word's 32 MLC cells, using vectorized
// symbol-difference masks.
func (e EnergyModel) MLCWordEnergy(old, new uint64) float64 {
	return e.MLCWordEnergyMasked(old, new, ^uint64(0))
}

// MLCWordEnergyMasked is MLCWordEnergy restricted to the cells whose bits
// are selected by bitMask (a per-bit mask; a cell is included if either
// of its bits is in the mask). Used by the coset evaluators to cost one
// partition of a word at a time.
func (e EnergyModel) MLCWordEnergyMasked(old, new, bitMask uint64) float64 {
	diff := bitutil.SymbolDiffMask(old, new) // both bits set per changed cell
	diff &= bitutil.ExpandSymbolMask(bitutil.CollapseBitMaskToSymbols(bitMask))
	// Right digits of the new word, expanded back onto symbol pairs so
	// we can split the changed cells into high/low classes.
	newRight := bitutil.ExpandSymbolMask(bitutil.CompressEven(new))
	high := bits.OnesCount64(diff&newRight) / 2
	changed := bits.OnesCount64(diff) / 2
	low := changed - high
	return float64(high)*e.MLCHighPJ + float64(low)*e.MLCLowPJ
}

// MLCWordEnergyExpandedMask is MLCWordEnergyMasked for callers that
// already hold a symbol-expanded bit mask (both bits of every selected
// cell set, none half-set), skipping the collapse/expand round trip the
// masked variant performs to normalize arbitrary masks. The coset
// evaluator uses it on its hoisted full-plane mask.
func (e EnergyModel) MLCWordEnergyExpandedMask(old, new, expMask uint64) float64 {
	diff := bitutil.SymbolDiffMask(old, new) & expMask
	newRight := bitutil.ExpandSymbolMask(bitutil.CompressEven(new))
	high := bits.OnesCount64(diff&newRight) / 2
	changed := bits.OnesCount64(diff) / 2
	low := changed - high
	return float64(high)*e.MLCHighPJ + float64(low)*e.MLCLowPJ
}

// MLCWordCounts returns the exact integer transition counts of writing
// new over old across every MLC cell the operands carry: high is the
// number of changed symbols programmed into an intermediate state (new
// right digit 1), low the remaining changed symbols. It is the counting
// core of MLCWordEnergyAll, which folds the counts through
// MLCEnergyFromCounts.
func MLCWordCounts(old, new uint64) (high, low int) {
	d := old ^ new
	// Bit 2k of changed is set iff symbol k differs; bit 2k of new is the
	// new right digit of symbol k, so their AND counts high-energy cells.
	changed := (d & evenMask) | ((d & oddMask) >> 1)
	high = bits.OnesCount64(changed & new & evenMask)
	low = bits.OnesCount64(changed) - high
	return high, low
}

// MLCEnergyFromCounts is the canonical high/low multiply-accumulate.
// Every MLC energy path, and the coset encoder's energy table, computes
// exactly this expression: float64 addition is not associative, so
// sharing the expression is what makes exact integer counts imply
// bit-identical energies.
func (e EnergyModel) MLCEnergyFromCounts(high, low int) float64 {
	return float64(high)*e.MLCHighPJ + float64(low)*e.MLCLowPJ
}

// MLCWordEnergyAll prices every cell of the old→new transition with no
// mask at all. It is the cheapest form, used by the partition-sliced
// encode fast path on pre-sliced sub-blocks (both operands carry only
// the symbols under evaluation): one XOR, two mask folds and two
// popcounts replace the full masked pipeline. The high/low split and the
// final multiply-add are written exactly as in MLCWordEnergyMasked so
// the two produce bit-identical float64 results from identical counts.
func (e EnergyModel) MLCWordEnergyAll(old, new uint64) float64 {
	high, low := MLCWordCounts(old, new)
	return e.MLCEnergyFromCounts(high, low)
}

// SLCWordEnergy returns the total energy (pJ) of writing new over old
// treating each of the 64 bits as one SLC cell.
func (e EnergyModel) SLCWordEnergy(old, new uint64) float64 {
	return e.SLCWordEnergyMasked(old, new, ^uint64(0))
}

// SLCWordEnergyMasked is SLCWordEnergy restricted to bits in bitMask.
func (e EnergyModel) SLCWordEnergyMasked(old, new, bitMask uint64) float64 {
	diff := (old ^ new) & bitMask
	sets := bits.OnesCount64(diff & new)
	resets := bits.OnesCount64(diff &^ new)
	return float64(sets)*e.SLCSetPJ + float64(resets)*e.SLCResetPJ
}

// WordEnergy dispatches on mode.
func (e EnergyModel) WordEnergy(mode CellMode, old, new uint64) float64 {
	if mode == MLC {
		return e.MLCWordEnergy(old, new)
	}
	return e.SLCWordEnergy(old, new)
}

// AuxBitsEnergy models the cost of writing auxiliary (coset index) bits.
// Aux bits live in the spare ECC capacity of the row, in cells of the
// same technology. For MLC we model each aux bit as the right digit of a
// cell whose left digit is 0, so writing a '1' aux bit that changes is a
// high-energy intermediate-state program, matching how the paper charges
// for auxiliary information. old and new carry nbits significant bits.
func (e EnergyModel) AuxBitsEnergy(mode CellMode, old, new uint64, nbits int) float64 {
	m := bitutil.Mask(nbits)
	diff := (old ^ new) & m
	if mode == MLC {
		high := bits.OnesCount64(diff & new)
		low := bits.OnesCount64(diff &^ new)
		return float64(high)*e.MLCHighPJ + float64(low)*e.MLCLowPJ
	}
	sets := bits.OnesCount64(diff & new)
	resets := bits.OnesCount64(diff &^ new)
	return float64(sets)*e.SLCSetPJ + float64(resets)*e.SLCResetPJ
}
