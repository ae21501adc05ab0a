package platform

import "strconv"

// scanBid is the hand-written fast path for the one hot message type: it
// decodes a line of the shape {"type":"bid","bid":{...}} into env, reusing
// env.Bid's storage exactly as encoding/json would (slices are refilled
// from length zero into their spare capacity, which resetForReuse has
// cleared), and reports whether it did. It accepts a strict subset of
// JSON on which it and encoding/json agree by construction:
//
//   - keys are the exact field names, as plain printable ASCII with no
//     escapes, each at most once per object; any other key (one
//     encoding/json would ignore or case-fold onto a field, say) leaves
//     the subset;
//   - "type" is exactly "bid", and both "type" and "bid" are present;
//   - no null anywhere;
//   - an int is -?(0|[1-9][0-9]*) with at most maxIntDigits digits, so it
//     cannot overflow;
//   - a float is any JSON number, converted by strconv.ParseFloat as
//     encoding/json does, and finite;
//   - JSON whitespace anywhere between tokens, and nothing else after the
//     closing brace.
//
// On a false return the line may be anything, so the caller resets env and
// decodes the line with encoding/json: the fast path can only ever give
// the answer encoding/json gives, or defer to it.
func scanBid(line []byte, env *Envelope) bool {
	msg := env.Bid
	s := bidScanner{b: line}
	var seen uint8
	s.expect('{')
	for first := true; s.more('}', first); first = false {
		switch string(s.key()) {
		case "type":
			s.once(&seen, 1)
			if string(s.str()) != TypeBid {
				s.bad = true
			}
		case "bid":
			s.once(&seen, 2)
			if msg == nil {
				msg = new(BidSubmitMsg)
			}
			s.submit(msg)
		default:
			s.bad = true
		}
	}
	s.skipSpace()
	if s.bad || seen != 3 || s.i != len(s.b) {
		return false
	}
	env.Type = TypeBid
	env.Bid = msg
	return true
}

// maxIntDigits is the longest digit run that fits an int whatever the
// digits: 18 on 64-bit platforms, 9 on 32-bit ones.
const maxIntDigits = strconv.IntSize * 9 / 32

// bidScanner walks one line. The first byte outside the subset sets bad;
// from then on every loop ends at its next more call and the result is
// discarded, so no step needs to unwind.
type bidScanner struct {
	b   []byte
	i   int
	bad bool
}

func (s *bidScanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// expect consumes c after optional whitespace.
func (s *bidScanner) expect(c byte) {
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return
	}
	s.bad = true
}

// more reports whether another member or element follows in the object
// or array that close ends: it consumes the comma before every member
// but the first, or the closing byte at the end.
func (s *bidScanner) more(close byte, first bool) bool {
	if s.bad {
		return false
	}
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == close {
		s.i++
		return false
	}
	if !first {
		s.expect(',')
	}
	return !s.bad
}

// once marks bit in seen, and leaves the subset on a repeated key.
func (s *bidScanner) once(seen *uint8, bit uint8) {
	if *seen&bit != 0 {
		s.bad = true
	}
	*seen |= bit
}

// key consumes one member key and its colon, and returns the key.
func (s *bidScanner) key() []byte {
	k := s.str()
	s.expect(':')
	return k
}

// str consumes a string of plain printable ASCII and returns its
// contents. An escape or any other byte leaves the subset, since
// encoding/json would unescape it, or case-fold it onto a field name.
func (s *bidScanner) str() []byte {
	s.expect('"')
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1]
		case c < 0x20 || c >= 0x80 || c == '\\':
			s.bad = true
			return nil
		}
	}
	s.bad = true
	return nil
}

// submit decodes a BidSubmitMsg object into msg.
func (s *bidScanner) submit(msg *BidSubmitMsg) {
	var seen uint8
	s.expect('{')
	for first := true; s.more('}', first); first = false {
		switch string(s.key()) {
		case "t":
			s.once(&seen, 1)
			msg.T = s.int()
		case "bids":
			s.once(&seen, 2)
			msg.Bids = s.wireBids(msg.Bids[:0])
		case "multi":
			s.once(&seen, 4)
			msg.Multi = msg.Multi[:0]
			s.expect('[')
			for first := true; s.more(']', first); first = false {
				var ab *AgentBids
				msg.Multi, ab = extend(msg.Multi)
				s.agentBids(ab)
			}
		default:
			s.bad = true
		}
	}
}

// agentBids decodes one entry of a multiplexed submission into ab.
func (s *bidScanner) agentBids(ab *AgentBids) {
	var seen uint8
	s.expect('{')
	for first := true; s.more('}', first); first = false {
		switch string(s.key()) {
		case "agent":
			s.once(&seen, 1)
			ab.Agent = s.int()
		case "bids":
			s.once(&seen, 2)
			ab.Bids = s.wireBids(ab.Bids[:0])
		default:
			s.bad = true
		}
	}
}

// wireBids decodes an array of bids, appending to bids.
func (s *bidScanner) wireBids(bids []WireBid) []WireBid {
	s.expect('[')
	for first := true; s.more(']', first); first = false {
		var wb *WireBid
		bids, wb = extend(bids)
		s.wireBid(wb)
	}
	return bids
}

// wireBid decodes one bid object into wb.
func (s *bidScanner) wireBid(wb *WireBid) {
	var seen uint8
	s.expect('{')
	for first := true; s.more('}', first); first = false {
		switch string(s.key()) {
		case "alt":
			s.once(&seen, 1)
			wb.Alt = s.int()
		case "price":
			s.once(&seen, 2)
			wb.Price = s.float()
		case "covers":
			s.once(&seen, 4)
			wb.Covers = wb.Covers[:0]
			s.expect('[')
			for first := true; s.more(']', first); first = false {
				wb.Covers = append(wb.Covers, s.int())
			}
		case "units":
			s.once(&seen, 8)
			wb.Units = s.int()
		default:
			s.bad = true
		}
	}
}

// extend lengthens xs by one element and returns a pointer to it. Spare
// capacity is reused in place, as encoding/json reuses it; resetForReuse
// has cleared it.
func extend[T any](xs []T) ([]T, *T) {
	if len(xs) < cap(xs) {
		xs = xs[:len(xs)+1]
	} else {
		var zero T
		xs = append(xs, zero)
	}
	return xs, &xs[len(xs)-1]
}

// number consumes one JSON number and returns its text, and whether it
// is an integer literal: no fraction and no exponent.
func (s *bidScanner) number() (text []byte, integer bool) {
	s.skipSpace()
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	switch {
	case s.i < len(s.b) && s.b[s.i] == '0':
		s.i++
	case s.digits() == 0:
		s.bad = true
		return nil, false
	}
	integer = true
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		integer = false
		if s.digits() == 0 {
			s.bad = true
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		integer = false
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if s.digits() == 0 {
			s.bad = true
		}
	}
	return s.b[start:s.i], integer
}

// digits consumes a run of decimal digits and returns its length.
func (s *bidScanner) digits() int {
	start := s.i
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

// int decodes an integer literal short enough that it cannot overflow.
// A fraction or exponent leaves the subset: encoding/json refuses those
// for an int field.
func (s *bidScanner) int() int {
	text, integer := s.number()
	neg := len(text) > 0 && text[0] == '-'
	if neg {
		text = text[1:]
	}
	if !integer || len(text) > maxIntDigits {
		s.bad = true
		return 0
	}
	n := 0
	for _, c := range text {
		n = n*10 + int(c-'0')
	}
	if neg {
		return -n
	}
	return n
}

// float decodes a number as encoding/json does for a float64 field. The
// grammar is checked first because ParseFloat also takes forms JSON does
// not (hex, underscores, inf, nan); an out-of-range value leaves the
// subset.
func (s *bidScanner) float() float64 {
	text, _ := s.number()
	if s.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		s.bad = true
	}
	return f
}
