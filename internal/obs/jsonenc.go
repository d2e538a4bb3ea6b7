package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"unicode/utf8"
)

// jsonAppender writes JSON token by token, without reflection, laid out
// exactly as encoding/json lays it out with an indent of one space and
// no prefix (json.MarshalIndent(v, "", " "), or an Encoder after
// SetIndent("", " ")): every member and element on its own line, empty
// containers as [] and {}, and numbers and strings in encoding/json's
// forms. With w set, flush streams the buffer out in chunks of about
// flushAt bytes.
type jsonAppender struct {
	buf   []byte
	depth int  // open containers
	first bool // nothing written yet in the innermost open container
	w     io.Writer
	err   error // the first unsupported value or write error; sticky
}

// flushAt is the chunk size flush hands to the writer.
const flushAt = 32 << 10

// indent holds a newline and eight levels of one-space indent; the
// exporters nest at most four deep.
const indent = "\n        "

func (a *jsonAppender) open(c byte) {
	a.buf = append(a.buf, c)
	a.depth++
	a.first = true
}

func (a *jsonAppender) close(c byte) {
	a.depth--
	if !a.first {
		a.buf = append(a.buf, indent[:1+a.depth]...)
	}
	a.buf = append(a.buf, c)
	a.first = false
}

// elem starts the next element of the innermost open container.
func (a *jsonAppender) elem() {
	if !a.first {
		a.buf = append(a.buf, ',')
	}
	a.first = false
	a.buf = append(a.buf, indent[:1+a.depth]...)
}

// key starts the next object member.
func (a *jsonAppender) key(k string) {
	a.elem()
	a.str(k)
	a.buf = append(a.buf, ':', ' ')
}

// name starts the next object member under a constant, already quoted
// key written with its colon and space, as in name(`"seq": `).
func (a *jsonAppender) name(quoted string) {
	a.elem()
	a.buf = append(a.buf, quoted...)
}

func (a *jsonAppender) null() { a.buf = append(a.buf, "null"...) }

func (a *jsonAppender) int(i int64) { a.buf = strconv.AppendInt(a.buf, i, 10) }

func (a *jsonAppender) uint(u uint64) { a.buf = strconv.AppendUint(a.buf, u, 10) }

// str appends s as a JSON string. Printable ASCII other than the
// characters encoding/json escapes (" \ < > &) is written verbatim;
// any other string is rare in runtime names and is quoted by
// encoding/json itself, so control characters, U+2028/U+2029 and
// invalid UTF-8 come out exactly as it writes them.
func (a *jsonAppender) str(s string) {
	for i := 0; i < len(s); i++ {
		if !verbatim[s[i]] {
			q, _ := json.Marshal(s) // a string always marshals
			a.buf = append(a.buf, q...)
			return
		}
	}
	a.buf = append(a.buf, '"')
	a.buf = append(a.buf, s...)
	a.buf = append(a.buf, '"')
}

// verbatim marks the bytes str copies into a JSON string unescaped.
var verbatim = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// float appends f as encoding/json does: the shortest representation in
// 'f' form, switching to 'e' below 1e-6 and from 1e21 up, with a
// two-digit negative exponent trimmed to one (1e-07 → 1e-7). NaN and
// the infinities have no JSON form and set the error instead.
func (a *jsonAppender) float(f float64) {
	if err := finite(f); err != nil {
		if a.err == nil {
			a.err = err
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	a.buf = strconv.AppendFloat(a.buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(a.buf); n >= 4 && a.buf[n-4] == 'e' && a.buf[n-3] == '-' && a.buf[n-2] == '0' {
			a.buf[n-2] = a.buf[n-1]
			a.buf = a.buf[:n-1]
		}
	}
}

// floatMap appends m as an object with sorted keys; a nil map is null,
// as encoding/json writes it.
func (a *jsonAppender) floatMap(m map[string]float64) {
	if m == nil {
		a.null()
		return
	}
	a.open('{')
	for _, k := range sortedKeys(m) {
		a.key(k)
		a.float(m[k])
	}
	a.close('}')
}

// flush hands the buffer to w once it holds at least flushAt bytes, or
// whatever it holds when final, and returns the sticky error.
func (a *jsonAppender) flush(final bool) error {
	if a.err != nil || (!final && len(a.buf) < flushAt) {
		return a.err
	}
	n, err := a.w.Write(a.buf)
	if err == nil && n < len(a.buf) {
		err = io.ErrShortWrite
	}
	if err != nil {
		a.err = fmt.Errorf("obs: writing JSON: %w", err)
	}
	a.buf = a.buf[:0]
	return a.err
}

// finite rejects the float values JSON cannot represent.
func finite(f float64) error {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("obs: unsupported JSON value %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	return nil
}

// sortedKeys returns m's keys in the byte order encoding/json writes
// map members in.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
