package repro.baselines

import repro.core.{KspQuery, KspResult, Path, Termination, WeightedGraph, Yen}

/** Centralized baseline: Yen's algorithm [27] over the whole graph, one
  * query at a time — the sequential comparator of Figures 35–39.
  */
final class YenBaseline(g: WeightedGraph) extends Serializable {
  def query(q: KspQuery): KspResult =
    KspResult(q, Yen.ksp(g, q.s, q.t, q.k), iterations = 1, Termination.Exhausted)

  def batch(qs: Seq[KspQuery]): Seq[KspResult] = qs.map(query)
}

object YenBaseline {
  def ksp(g: WeightedGraph, s: Int, t: Int, k: Int): Seq[Path] = Yen.ksp(g, s, t, k)
}
