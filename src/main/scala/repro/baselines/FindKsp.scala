package repro.baselines

import repro.core.{Dijkstra, KspQuery, KspResult, Path, WeightedGraph}
import scala.collection.mutable

/** Centralized SPT-accelerated KSP baseline, standing in for FindKSP
  * [Liu et al., TKDE 2018] as used in Figures 35–39.
  *
  * Like the original, it exploits a single reverse shortest-path tree (SPT)
  * rooted at the destination to accelerate the generation of deviation
  * candidates: every spur search is an A* run with the admissible heuristic
  * `h(v) = dist(v, t)` taken from the SPT, instead of Yen's blind Dijkstra.
  * Results are exact k shortest simple paths; only the candidate-generation
  * cost differs from Yen — which is precisely the contrast the paper's
  * evaluation draws between the two centralized baselines.
  */
final class FindKsp(g: WeightedGraph) extends Serializable {

  def query(q: KspQuery): KspResult = KspResult(q, ksp(q.s, q.t, q.k), iterations = 1)

  def batch(qs: Seq[KspQuery]): Seq[KspResult] = qs.map(query)

  def ksp(s: Int, t: Int, k: Int): Seq[Path] = {
    if (s == t) return Seq(Path(Vector(s), Vector.empty, 0.0))
    // Reverse SPT from t (graph is undirected: forward == reverse).
    val distT = Dijkstra.run(g, t).dist
    if (distT(s).isInfinite) return Seq.empty

    val accepted = mutable.ArrayBuffer.empty[Path]
    val candidates =
      mutable.PriorityQueue.empty[Path](Ordering.by[Path, Double](_.distance).reverse)
    val seen = mutable.HashSet.empty[Vector[Int]]

    Dijkstra.shortestPath(g, s, t, heuristic = distT(_)).foreach { p =>
      if (seen.add(p.vertices)) candidates.enqueue(p)
    }

    while (accepted.size < k && candidates.nonEmpty) {
      val p = candidates.dequeue()
      accepted += p
      if (accepted.size < k) {
        var i = 0
        while (i < p.vertices.length - 1) {
          val rootVertices = p.vertices.take(i + 1)
          val rootEdges = p.edgeIds.take(i)
          val rootDist = rootEdges.map(g.weights).sum
          val bannedEdges = accepted.iterator
            .filter(a => a.vertices.length > i + 1 && a.vertices.take(i + 1) == rootVertices)
            .map(_.edgeIds(i)).toSet
          val bannedVerts = rootVertices.dropRight(1).toSet
          Dijkstra.shortestPath(g, rootVertices(i), t, bannedVertex = bannedVerts.contains,
              bannedEdge = bannedEdges.contains, heuristic = distT(_)).foreach { sp =>
            val full = Path(rootVertices ++ sp.vertices.tail, rootEdges ++ sp.edgeIds, rootDist + sp.distance)
            if (full.isSimple && seen.add(full.vertices)) candidates.enqueue(full)
          }
          i += 1
        }
      }
    }
    accepted.toSeq
  }
}
