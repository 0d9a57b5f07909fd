package main

import "pier/internal/lib"

func main() {
	lib.Used()
	var s lib.Shape = lib.Square{}
	_ = s.Area()
	var l lib.List[int]
	l.Push(1)
}
