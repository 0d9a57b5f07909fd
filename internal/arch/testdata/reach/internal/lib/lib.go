package lib

func Used() { helper() }

func helper() {}

func FromAPI() {}

func FromBench() {}

func Dead() {}

func Spec() int { return 1 }

type Shape interface{ Area() float64 }

type Square struct{}

func (Square) Area() float64 { return 1 }

func (Square) Perimeter() float64 { return 4 }

type Circle struct{}

func (Circle) Area() float64 { return 3 }

type List[T any] struct{ items []T }

func (l *List[T]) Push(x T) { l.items = append(l.items, x) }
