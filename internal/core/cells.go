package core

import (
	"slices"

	"repro/internal/cluster"
	"repro/internal/workload"
)

// cell is one supported (query, cluster) pair of the engine's sparse
// aggregates: the cluster hosts a supporter or an answerable demander
// of the row's query, or demandW still carries the ulp residue of one
// that left. A pair without a cell reads as all zeros.
type cell struct {
	cid     cluster.CID
	res     float64 // Σ_{p∈c} result(q,p)
	demand  float64 // Σ_{p∈c} num(q,Q(p))   (answerable queries only)
	demandW float64 // Σ_{p∈c} w_p(q)        (answerable queries only)
}

// searchCells returns where cluster c sits, or would be inserted, in a
// row (ascending in cid).
func searchCells(row []cell, c cluster.CID) int {
	lo, hi := 0, len(row)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); row[m].cid < c {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// cellAt reads the (q, c) cell; it never changes the row, so frozen
// concurrent scans may call it.
func (e *Engine) cellAt(q workload.QID, c cluster.CID) cell {
	row := e.rows[q]
	if i := searchCells(row, c); i < len(row) && row[i].cid == c {
		return row[i]
	}
	return cell{cid: c}
}

// cellPos returns the position of the (q, c) cell in row q, inserting
// the cell when the pair was unsupported. The position holds until row
// q next gains or loses a cell.
func (e *Engine) cellPos(q workload.QID, c cluster.CID) int {
	row := e.rows[q]
	i := searchCells(row, c)
	if i == len(row) || row[i].cid != c {
		e.rows[q] = slices.Insert(row, i, cell{cid: c})
	}
	return i
}

// cellFor returns the (q, c) cell for writing; see cellPos.
func (e *Engine) cellFor(q workload.QID, c cluster.CID) *cell {
	i := e.cellPos(q, c)
	return &e.rows[q][i]
}

// dropIfZero removes the cell at position i of row q once nothing is
// left in it. All three values must be exactly zero: res and demand
// are integers, but demandW can keep an ulp of residue after its last
// contributor left, and a later contributor must add onto that
// residue, as it always has, for the costs to stay bit-identical.
func (e *Engine) dropIfZero(q workload.QID, i int) {
	if row := e.rows[q]; row[i] == (cell{cid: row[i].cid}) {
		e.rows[q] = slices.Delete(row, i, i+1)
	}
}

// growRowSlices extends a per-query list of rows to nq queries. Rows
// exposed by regrowing within capacity are emptied but keep their
// backing arrays: slideRows parks the rows of retired queries there so
// the next novel query reuses one instead of allocating.
func growRowSlices[T any](rows [][]T, nq int) [][]T {
	if cap(rows) >= nq {
		old := len(rows)
		rows = rows[:nq]
		for i := old; i < nq; i++ {
			rows[i] = rows[i][:0]
		}
		return rows
	}
	return append(rows, make([][]T, nq-len(rows))...)
}

// slideRows moves each surviving row of a compaction down to its new
// position (the remap is monotone) and returns the survivors; the rows
// of retired queries end up behind them, for growRowSlices.
func slideRows[T any](rows [][]T, remap workload.CompactRemap) [][]T {
	k := 0
	for q := range rows {
		if remap[q] >= 0 {
			rows[k], rows[q] = rows[q], rows[k]
			k++
		}
	}
	return rows[:k]
}
