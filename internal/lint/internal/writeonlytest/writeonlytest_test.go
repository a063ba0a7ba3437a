package writeonlytest

// A read from a test does not count.
var _ = planted{}.testRead
