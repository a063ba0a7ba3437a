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
	// The headline case, planted as a StreamCreate case in the guest's
	// encodeOp: a result-bearing call gets a deferred form, and the handle
	// its reply carries would be read as a bare status. No method routes the
	// call to a lane yet, so no run reaches the case and no test fails; the
	// runtime guard fires only on the async lane, once one does.
	case CallBad:
		AppendBadCall(e) // want "not result-free"
	case CallGood:
		AppendGoodCall(e)
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
