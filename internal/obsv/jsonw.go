package obsv

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
)

// jsonw is the append-based JSON writer behind watchdog.json and the
// Chrome trace-event encoder. It writes exactly what encoding/json
// writes for the three value kinds those formats hold, with no
// reflection, and no allocation for a number or a plain string:
//
//   - a string of printable ASCII without '"', '\\', '<', '>' or '&'
//     is appended as it is, between quotes; any other string goes
//     through json.Marshal, so encoding/json's HTML, U+2028/U+2029 and
//     invalid-UTF-8 escaping hold by construction;
//   - a float64 takes encoding/json's form: 'f', or 'e' when
//     |x| < 1e-6 or |x| >= 1e21, with e-09 shortened to e-9; NaN and
//     ±Inf are json.Marshal's error;
//   - an integer is strconv.AppendInt.
//
// The first error sticks in err; the caller checks it once, at flush.
type jsonw struct {
	b   []byte
	err error
}

// jsonFor starts a writer that appends into the spare capacity w lends,
// when w lends any (a *bytes.Buffer, such as a job's scratch buffer, or
// a *bufio.Writer), so rendering there allocates only while the buffer
// grows.
func jsonFor(w io.Writer) jsonw {
	if ab, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		return jsonw{b: ab.AvailableBuffer()}
	}
	return jsonw{}
}

// flush writes everything appended to w in one Write, or returns the
// first error met while appending, having written nothing.
func (j *jsonw) flush(w io.Writer) error {
	if j.err != nil {
		return j.err
	}
	_, err := w.Write(j.b)
	return err
}

// raw appends s verbatim: punctuation, keys and indentation. Each
// value appender below first appends its pre the same way, the text
// that leads up to the value.
func (j *jsonw) raw(s string) { j.b = append(j.b, s...) }

// str appends pre, then s as a JSON string.
func (j *jsonw) str(pre, s string) { j.b = appendString(append(j.b, pre...), s) }

// int appends pre, then n as a JSON number.
func (j *jsonw) int(pre string, n int64) { j.b = strconv.AppendInt(append(j.b, pre...), n, 10) }

// float appends pre, then x as a JSON number.
func (j *jsonw) float(pre string, x float64) {
	var err error
	j.b, err = appendFloat(append(j.b, pre...), x)
	if err != nil && j.err == nil {
		j.err = err
	}
}

// plain reports whether encoding/json writes s between its quotes
// unchanged.
func plain[S string | []byte](s S) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// appendString appends s as encoding/json writes a string.
func appendString(b []byte, s string) []byte {
	if !plain(s) {
		q, _ := json.Marshal(s) // a string always marshals
		return append(b, q...)
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends x as encoding/json writes a float64.
func appendFloat(b []byte, x float64) ([]byte, error) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		_, err := json.Marshal(x) // *json.UnsupportedValueError
		return b, err
	}
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9, as encoding/json writes it.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}
