package erasure

import (
	"errors"
	"fmt"
)

// matrix is a dense matrix over GF(2^8), row-major.
type matrix struct {
	rows, cols int
	data       []byte
}

func newMatrix(rows, cols int) matrix {
	return matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

func (m matrix) at(r, c int) byte     { return m.data[r*m.cols+c] }
func (m matrix) set(r, c int, v byte) { m.data[r*m.cols+c] = v }
func (m matrix) row(r int) []byte     { return m.data[r*m.cols : (r+1)*m.cols] }

// identity returns the n×n identity matrix.
func identity(n int) matrix {
	m := newMatrix(n, n)
	for i := 0; i < n; i++ {
		m.set(i, i, 1)
	}
	return m
}

// vandermonde returns the rows×cols matrix with entry (i,j) = i^j — the
// starting point of Plank's tutorial construction.
func vandermonde(rows, cols int) matrix {
	m := newMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		v := byte(1)
		elt := byte(r)
		for c := 0; c < cols; c++ {
			m.set(r, c, v)
			v = mul(v, elt)
		}
	}
	return m
}

// mul returns m × other.
func (m matrix) mul(other matrix) matrix {
	if m.cols != other.rows {
		panic(fmt.Sprintf("erasure: matrix dims %dx%d × %dx%d", m.rows, m.cols, other.rows, other.cols))
	}
	out := newMatrix(m.rows, other.cols)
	for r := 0; r < m.rows; r++ {
		for k := 0; k < m.cols; k++ {
			a := m.at(r, k)
			if a == 0 {
				continue
			}
			mulSlice(out.row(r), other.row(k), a)
		}
	}
	return out
}

// errSingular reports a non-invertible decode matrix (should never happen
// with an MDS code and distinct surviving rows).
var errSingular = errors.New("erasure: singular matrix")

// invert returns m⁻¹ by Gauss-Jordan elimination. m must be square.
func (m matrix) invert() (matrix, error) {
	if m.rows != m.cols {
		return matrix{}, errors.New("erasure: cannot invert non-square matrix")
	}
	n := m.rows
	// Work on [m | I].
	work := newMatrix(n, 2*n)
	for r := 0; r < n; r++ {
		copy(work.row(r)[:n], m.row(r))
		work.set(r, n+r, 1)
	}
	for col := 0; col < n; col++ {
		// Find pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if work.at(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return matrix{}, errSingular
		}
		if pivot != col {
			pr, cr := work.row(pivot), work.row(col)
			for i := range pr {
				pr[i], cr[i] = cr[i], pr[i]
			}
		}
		// Scale pivot row to 1.
		if v := work.at(col, col); v != 1 {
			vInv := inv(v)
			row := work.row(col)
			for i := range row {
				row[i] = mul(row[i], vInv)
			}
		}
		// Eliminate the column elsewhere.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			factor := work.at(r, col)
			if factor == 0 {
				continue
			}
			mulSlice(work.row(r), work.row(col), factor)
		}
	}
	out := newMatrix(n, n)
	for r := 0; r < n; r++ {
		copy(out.row(r), work.row(r)[n:])
	}
	return out, nil
}

// subMatrix returns the matrix formed from the given rows of m.
func (m matrix) subMatrix(rows []int) matrix {
	out := newMatrix(len(rows), m.cols)
	for i, r := range rows {
		copy(out.row(i), m.row(r))
	}
	return out
}
