type locality = { sensitivity : float; warm_fraction : float }

let apache = { sensitivity = 1.0; warm_fraction = 0.55 }
let flash = { sensitivity = 2.0; warm_fraction = 0.45 }
let neutral = { sensitivity = 1.0; warm_fraction = 1.0 }
