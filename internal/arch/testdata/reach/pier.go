package pier

import "pier/internal/lib"

func API() { lib.FromAPI() }

func unexported() {}
