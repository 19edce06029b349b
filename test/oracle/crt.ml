let solve congruences =
  Lbq_numth.Crt.Tree.solve (Lbq_numth.Crt.Tree.build congruences)
