package rs

import "fmt"

// matrix is a dense row-major byte matrix over GF(2⁸).
type matrix struct {
	rows, cols int
	data       []byte
}

func newMatrix(rows, cols int) matrix {
	return matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

// reshape makes m a zero rows×cols matrix, in its own storage when that is
// large enough.
func (m *matrix) reshape(rows, cols int) {
	if n := rows * cols; cap(m.data) < n {
		m.data = make([]byte, n)
	} else {
		m.data = m.data[:n]
		clear(m.data)
	}
	m.rows, m.cols = rows, cols
}

func (m matrix) at(r, c int) byte     { return m.data[r*m.cols+c] }
func (m matrix) set(r, c int, v byte) { m.data[r*m.cols+c] = v }
func (m matrix) row(r int) []byte     { return m.data[r*m.cols : (r+1)*m.cols] }

// vandermonde builds the rows×cols matrix with entry (r,c) = α^(r·c).
// Any cols×cols submatrix of a Vandermonde matrix with distinct generators
// is invertible, which is what makes RS decoding possible from any k shards.
func vandermonde(rows, cols int) matrix {
	m := newMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.set(r, c, gfExp(r*c))
		}
	}
	return m
}

// mul returns m·other.
func (m matrix) mul(other matrix) matrix {
	if m.cols != other.rows {
		panic(fmt.Sprintf("rs: matrix dim mismatch %dx%d · %dx%d", m.rows, m.cols, other.rows, other.cols))
	}
	out := newMatrix(m.rows, other.cols)
	for r := 0; r < m.rows; r++ {
		mrow := m.row(r)
		orow := out.row(r)
		for k, a := range mrow {
			if a == 0 {
				continue
			}
			mulAdd(&mulTable[a], other.row(k), orow)
		}
	}
	return out
}

// subMatrix returns rows [r0,r1) and cols [c0,c1) as a copy.
func (m matrix) subMatrix(r0, r1, c0, c1 int) matrix {
	out := newMatrix(r1-r0, c1-c0)
	for r := r0; r < r1; r++ {
		copy(out.row(r-r0), m.row(r)[c0:c1])
	}
	return out
}

// invert writes the inverse of a square matrix into out via Gauss-Jordan
// elimination with partial pivoting, or returns an error if the matrix is
// singular. work and out are reshaped for it, so a decoder passes the same
// two on every call and a one-time inversion passes fresh ones.
func (m matrix) invert(work, out *matrix) error {
	if m.rows != m.cols {
		return fmt.Errorf("rs: cannot invert %dx%d matrix", m.rows, m.cols)
	}
	n := m.rows
	// work = [m | I]
	work.reshape(n, 2*n)
	for r := 0; r < n; r++ {
		copy(work.row(r)[:n], m.row(r))
		work.set(r, n+r, 1)
	}
	for col := 0; col < n; col++ {
		// Find a pivot row.
		pivot := -1
		for r := col; r < n; r++ {
			if work.at(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return fmt.Errorf("rs: singular matrix")
		}
		if pivot != col {
			pr, cr := work.row(pivot), work.row(col)
			for i := range pr {
				pr[i], cr[i] = cr[i], pr[i]
			}
		}
		// Scale pivot row to make the pivot 1.
		if v := work.at(col, col); v != 1 {
			inv := gfInv(v)
			row := work.row(col)
			for i := range row {
				row[i] = gfMul(row[i], inv)
			}
		}
		// Eliminate the column from every other row.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			if f := work.at(r, col); f != 0 {
				mulAdd(&mulTable[f], work.row(col), work.row(r))
			}
		}
	}
	out.reshape(n, n)
	for r := 0; r < n; r++ {
		copy(out.row(r), work.row(r)[n:])
	}
	return nil
}

// buildSystematic converts a Vandermonde matrix into systematic form: the
// top k×k block becomes the identity, so data shards pass through encode
// unchanged and only parity rows require arithmetic.
func buildSystematic(n, k int) matrix {
	v := vandermonde(n, k)
	var work, topInv matrix
	if err := v.subMatrix(0, k, 0, k).invert(&work, &topInv); err != nil {
		// Vandermonde top blocks are always invertible; reaching this
		// indicates field-table corruption, not a runtime condition.
		panic("rs: vandermonde top block not invertible: " + err.Error())
	}
	return v.mul(topInv)
}
