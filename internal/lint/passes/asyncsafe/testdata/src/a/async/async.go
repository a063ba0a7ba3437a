package async

type enc struct{}

// AppendGoodCall and AppendOtherCall stand in for generated result-free
// calls' encoders.
func AppendGoodCall(e *enc)  {}
func AppendOtherCall(e *enc) {}

// AppendBadCall stands in for a generated result-bearing call's encoder.
func AppendBadCall(e *enc) {}

const (
	CallGood = iota + 1
	CallOther
	CallBad
)

type op struct{ id int }

type lib struct{}

// encodeOp is the lane encoder: what it emits rides whatever lane the op's
// ID selects.
func (l *lib) encodeOp(e *enc, o *op) {
	switch o.id {
	case CallGood:
		AppendGoodCall(e)
	case CallBad:
		AppendBadCall(e) // want "not result-free"
	case CallOther:
		AppendGoodCall(e) // want "does not name CallGood"
	case CallOther + 10:
		// No call named: nothing to match against, the table still applies.
		if o.id > 10 {
			AppendOtherCall(e)
		}
	}
}

// Outside the lane encoder any Append*Call is fine (the generated client's
// synchronous stubs).
func use() {
	var e enc
	AppendBadCall(&e)
}
