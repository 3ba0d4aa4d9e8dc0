"""The reference scheme updates, shared by the update and drift tests.

model.drift and the integrators' updates build each result in one fresh
array and update it in place. These are the same expressions written out
of place, one new value per operation, with the operands in the same
order; the tests pin the engine's updates to them bit for bit.
"""


def drift(s, p):
    u, v = s
    coupling = p.m * u * v
    return (p.r * u * (1.0 - u / p.K) - coupling, coupling - p.d * v)


def em_next(u, v, dt, dB, p):
    du, dv = drift((u, v), p)
    noise = (p.sigma * u * v) * dB
    return u + du * dt - noise, v + dv * dt + noise


def milstein_next(u, v, dt, dB, p):
    un, vn = em_next(u, v, dt, dB, p)
    corr = p.half_sigma_sq * u * v * (v - u) * (dB * dB - dt)
    return un + corr, vn - corr
