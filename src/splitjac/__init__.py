"""Exact arithmetic pipeline classifying the genus-2 curves that map to a
fixed elliptic curve in every degree, plus constructive universality checks
for the four quaternary degree forms that arise."""
