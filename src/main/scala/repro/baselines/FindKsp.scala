package repro.baselines

import repro.core.{KspQuery, KspResult, Path, Termination, WeightedGraph, Yen}

/** Centralized SPT-accelerated KSP baseline, standing in for FindKSP
  * [Liu et al., TKDE 2018] as used in Figures 35–39.
  *
  * Like the original, it exploits a reverse shortest-path tree (SPT) rooted
  * at the destination: every spur search is an A* run with the admissible
  * heuristic `h(v) = dist(v, t)` taken from the SPT. That is how the shared
  * kernel [[Yen.ksp]] runs every spur search (adding Lawler's deviation
  * index), so this baseline is a call into it and runs the same algorithm as
  * [[YenBaseline]] (DESIGN.md §6).
  */
final class FindKsp(g: WeightedGraph) extends Serializable {

  def query(q: KspQuery): KspResult = KspResult(q, ksp(q.s, q.t, q.k), iterations = 1, Termination.Exhausted)

  def batch(qs: Seq[KspQuery]): Seq[KspResult] = qs.map(query)

  def ksp(s: Int, t: Int, k: Int): Seq[Path] = Yen.ksp(g, s, t, k)
}
