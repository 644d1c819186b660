package server

import (
	"strconv"
	"unicode/utf8"
)

// decodeFlat decodes the body nearly every client sends — one object of
// "sql", "timeout_ms", "explain", "mode" and "max_error", each at most once
// and spelled exactly so, each holding a plain value of its field's type — in
// one pass, without reflection. It reports false for any other body: a
// "query" object, any other or differently cased key, a repeated key, a null,
// a string with a surrogate escape or invalid UTF-8, a number its field cannot
// hold, trailing data. Such a body goes to decodeStrict, which is what
// defines an acceptable request; whatever decodeFlat accepts, decodeStrict
// decodes to the same PlanRequest (FuzzFlatDecodeMatchesStrict).
func decodeFlat(data []byte) (*PlanRequest, bool) {
	d := flatDecoder{data: data}
	req := new(PlanRequest)
	d.space()
	if !d.take('{') {
		return nil, false
	}
	d.space()
	if d.take('}') {
		return req, d.end()
	}
	var seen uint8
	for {
		key, ok := d.key()
		if !ok {
			return nil, false
		}
		d.space()
		if !d.take(':') {
			return nil, false
		}
		d.space()
		var bit uint8
		switch string(key) {
		case "sql":
			bit = 1
			req.SQL, ok = d.str()
		case "timeout_ms":
			bit = 2
			req.TimeoutMs, ok = d.int()
		case "explain":
			bit = 4
			req.Explain, ok = d.boolean()
		case "mode":
			bit = 8
			req.Mode, ok = d.str()
		case "max_error":
			bit = 16
			req.MaxError, ok = d.float()
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return nil, false
		}
		seen |= bit
		d.space()
		if d.take('}') {
			return req, d.end()
		}
		if !d.take(',') {
			return nil, false
		}
		d.space()
	}
}

// flatDecoder reads data from i on; each method reports false, and may
// leave i anywhere, when what it wants is not there.
type flatDecoder struct {
	data []byte
	i    int
}

// space skips JSON whitespace.
func (d *flatDecoder) space() {
	for d.i < len(d.data) {
		switch d.data[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// take consumes c if it is next.
func (d *flatDecoder) take(c byte) bool {
	if d.i < len(d.data) && d.data[d.i] == c {
		d.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (d *flatDecoder) end() bool {
	d.space()
	return d.i == len(d.data)
}

// key reads an object key with no escapes in it, as its raw bytes.
func (d *flatDecoder) key() ([]byte, bool) {
	if !d.take('"') {
		return nil, false
	}
	start := d.i
	for d.i < len(d.data) {
		switch c := d.data[d.i]; {
		case c == '"':
			d.i++
			return d.data[start : d.i-1], true
		case c == '\\' || c < 0x20:
			return nil, false
		}
		d.i++
	}
	return nil, false
}

// str reads a string value. A string without escapes is copied as it
// stands; one with escapes is unescaped into a new buffer.
func (d *flatDecoder) str() (string, bool) {
	if !d.take('"') {
		return "", false
	}
	start := d.i
	for d.i < len(d.data) {
		switch c := d.data[d.i]; {
		case c == '"':
			raw := d.data[start:d.i]
			d.i++
			return string(raw), utf8.Valid(raw)
		case c == '\\':
			return d.unescape(start)
		case c < 0x20:
			return "", false
		}
		d.i++
	}
	return "", false
}

// unescape finishes a string value from start, d.i at its first backslash.
func (d *flatDecoder) unescape(start int) (string, bool) {
	buf := append(make([]byte, 0, len(d.data)-start), d.data[start:d.i]...)
	for d.i < len(d.data) {
		c := d.data[d.i]
		switch {
		case c == '"':
			d.i++
			return string(buf), utf8.Valid(buf)
		case c < 0x20:
			return "", false
		case c != '\\':
			buf = append(buf, c)
			d.i++
			continue
		}
		if d.i+1 >= len(d.data) {
			return "", false
		}
		d.i += 2
		switch e := d.data[d.i-1]; e {
		case '"', '\\', '/':
			buf = append(buf, e)
		case 'b':
			buf = append(buf, '\b')
		case 'f':
			buf = append(buf, '\f')
		case 'n':
			buf = append(buf, '\n')
		case 'r':
			buf = append(buf, '\r')
		case 't':
			buf = append(buf, '\t')
		case 'u':
			if d.i+4 > len(d.data) {
				return "", false
			}
			r, err := strconv.ParseUint(string(d.data[d.i:d.i+4]), 16, 16)
			if err != nil || utf8.RuneLen(rune(r)) < 0 { // a surrogate: pairs are left to encoding/json
				return "", false
			}
			buf = utf8.AppendRune(buf, rune(r))
			d.i += 4
		default:
			return "", false
		}
	}
	return "", false
}

// number reads the span of a JSON number: -?(0|[1-9][0-9]*), then, when
// frac, an optional fraction and exponent.
func (d *flatDecoder) number(frac bool) ([]byte, bool) {
	start := d.i
	d.take('-')
	if !d.take('0') && !d.digits() {
		return nil, false
	}
	if frac {
		if d.take('.') && !d.digits() {
			return nil, false
		}
		if d.take('e') || d.take('E') {
			if !d.take('+') {
				d.take('-')
			}
			if !d.digits() {
				return nil, false
			}
		}
	}
	return d.data[start:d.i], true
}

// digits consumes a run of decimal digits, reporting whether there was one.
func (d *flatDecoder) digits() bool {
	start := d.i
	for d.i < len(d.data) && '0' <= d.data[d.i] && d.data[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}

// int reads an integer as encoding/json reads one into an int64 (a
// fraction or exponent is left for it to refuse).
func (d *flatDecoder) int() (int64, bool) {
	num, ok := d.number(false)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(num), 10, 64)
	return n, err == nil
}

// float reads a number as encoding/json reads one into a float64.
func (d *flatDecoder) float() (float64, bool) {
	num, ok := d.number(true)
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(num), 64)
	return f, err == nil
}

// boolean reads true or false.
func (d *flatDecoder) boolean() (bool, bool) {
	rest := d.data[d.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		d.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		d.i += 5
		return false, true
	}
	return false, false
}
