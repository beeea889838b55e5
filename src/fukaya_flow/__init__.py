"""Exact computation of the flow category and the directed
Donaldson-Fukaya presentation attached to a framed link, with the
supporting combinatorial and numeric machinery: link-complement
homology over Z/2, Morse-Bott cascade complexes on flat models,
Maslov-index and Fredholm-gluing arithmetic, quadric geometry checks,
and quivers with relations over F2.
"""
