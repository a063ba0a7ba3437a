// Package writeonlytest is a fixture for TestNoWriteOnlyState: the fields
// of planted say in their comments whether the check reports them.
package writeonlytest

import "fmt"

type planted struct {
	written  int            // reported: assigned, never read
	testRead int            // reported: read only by a _test.go file
	appended []int          // reported: touched only by x.f = append(x.f, ...)
	filled   map[string]int // reported: only filled, bumped, deleted from and cleared
	read     int            // read below
	inner                   // embedded: never reported
	Tagged   int            `json:"tagged"` // json-tagged: read by reflection
}

type inner struct {
	promoted int // read through the embedded promotion
}

type key struct {
	size int // a map key's field is read by the map
}

type compared struct {
	n int // compared with == below
}

type printed struct {
	n int // printed by value below: fmt reads it by reflection
}

func use(m map[key]int) int {
	p := planted{written: 1, inner: inner{promoted: 2}, Tagged: 3, filled: map[string]int{}}
	p.testRead++
	p.appended = append(p.appended, p.read)
	p.filled["a"] = 1
	p.filled["a"] += 2
	p.filled["b"]++
	delete(p.filled, "a")
	clear(p.filled)
	m[key{size: 4}] = p.promoted
	if (compared{n: 5}) == (compared{}) {
		return 0
	}
	_ = fmt.Sprint(printed{n: 6})
	return len(m)
}
