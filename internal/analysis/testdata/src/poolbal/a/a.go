// Fixture for the poolbalance analyzer: every Get/Put pairing shape
// that the synthesis hot paths use, plus each way a buffer can leak or
// escape.
package a

import "bluefi/internal/dsp"

func use2(buf []complex128)   { _ = buf }

type holder struct{ buf []complex128 }

var global []complex128
var sink [][]complex128

// okDefer is the canonical single-buffer shape.
func okDefer() {
	buf := dsp.GetComplex(8)
	defer dsp.PutComplex(buf)
	use2(buf)
}

// okDeferClosure is the synth.go shape: several buffers released by one
// deferred closure.
func okDeferClosure() {
	a := dsp.GetComplex(8)
	b := dsp.GetComplex(4)
	defer func() {
		dsp.PutComplex(a)
		dsp.PutComplex(b)
	}()
	use2(a)
	use2(b)
}

// okInline releases without defer; legal because no return intervenes.
func okInline() {
	buf := dsp.GetComplex(8)
	use2(buf)
	dsp.PutComplex(buf)
}

func missingPut() {
	buf := dsp.GetComplex(8) // want `dsp.GetComplex buffer buf is never returned with dsp.PutComplex`
	use2(buf)
}

func wrongVariable() {
	a := dsp.GetComplex(8)
	b := dsp.GetComplex(8) // want `dsp.GetComplex buffer b is never returned with dsp.PutComplex`
	defer dsp.PutComplex(a)
	dsp.PutComplex(a)
	use2(b)
}

func earlyReturn(cond bool) {
	buf := dsp.GetComplex(8)
	if cond {
		return // want `return between dsp.GetComplex and its Put leaks buffer buf`
	}
	dsp.PutComplex(buf)
}

func discardedExpr() {
	dsp.GetComplex(8) // want `result of dsp.GetComplex is discarded`
}

func discardedBlank() {
	_ = dsp.GetComplex(8) // want `result of dsp.GetComplex is discarded`
}

func escapeReturn() []complex128 {
	buf := dsp.GetComplex(8)
	return buf // want `pooled buffer buf escapes via return`
}

func escapeReturnSliced() []complex128 {
	buf := dsp.GetComplex(8)
	return buf[:4] // want `pooled buffer buf escapes via return`
}

func escapeField(h *holder) {
	buf := dsp.GetComplex(8)
	h.buf = buf // want `pooled buffer buf is stored into field buf`
}

func escapeGlobal() {
	buf := dsp.GetComplex(8)
	global = buf // want `pooled buffer buf is stored into package-level variable global`
}

func escapeElement(m map[int][]complex128) {
	buf := dsp.GetComplex(8)
	m[0] = buf // want `pooled buffer buf is stored into an element of a longer-lived container`
}

func escapeComposite() holder {
	buf := dsp.GetComplex(8)
	return holder{buf: buf} // want `pooled buffer buf is captured by a composite literal`
}

func escapeAppend() {
	buf := dsp.GetComplex(8)
	sink = append(sink, buf) // want `pooled buffer buf is appended into a longer-lived slice`
}

// transfer documents an intentional ownership hand-off.
func transfer() []complex128 {
	buf := dsp.GetComplex(8)
	return buf //bluefi:pool-ok ownership transfers to the caller, which must PutComplex it
}
