package repro.core

import scala.collection.mutable

/** Yen's k-shortest-loopless-paths algorithm [Yen 1971].
  *
  * Implemented as a lazy generator: [[YenIterator.next]] produces the next
  * shortest simple path on demand, which KSP-DG needs both for reference
  * paths on the skeleton graph (one more per iteration, Section 5.2) and for
  * the termination test (peek at the `(i+1)`-th path's distance, Theorem 3).
  *
  * @param g               graph to search
  * @param s               source vertex
  * @param t               target vertex
  * @param interiorAllowed predicate on vertices allowed strictly between `s`
  *                        and `t`; used by the refine step to forbid boundary
  *                        vertices in segment interiors
  * @param weightOf        edge id → weight; defaults to current real weights
  */
final class YenIterator(
    g: GraphOps,
    s: Int,
    t: Int,
    interiorAllowed: Int => Boolean = _ => true,
    weightOf: Int => Double = null) {

  private val accepted = mutable.ArrayBuffer.empty[Path]
  // Candidate pool ordered by distance; dedup by vertex sequence.
  private val candidates =
    mutable.PriorityQueue.empty[Path](Ordering.by[Path, Double](_.distance).reverse)
  private val seen = mutable.HashSet.empty[Vector[Int]]
  // Lawler's optimization: a path deviating from its parent at index d only
  // needs spur searches at indices >= d.
  private val deviationIndexOf = mutable.HashMap.empty[Vector[Int], Int]
  private var exhausted = false

  // A* heuristic for every spur search: exact distances to `t` ignoring
  // bans — consistent and admissible, so results stay exact. One Dijkstra
  // per iterator; pays for itself from the first spur round.
  private lazy val hToT: Array[Double] = Dijkstra.run(g, t, weightOf = weightOf).dist

  private def bannedInterior(v: Int): Boolean = v != s && v != t && !interiorAllowed(v)

  /** Distance of the next path without consuming it, if one exists. */
  def peekDistance(): Option[Double] = {
    ensureCandidate()
    candidates.headOption.map(_.distance)
  }

  /** Produce the next shortest simple path, or None when no more exist. */
  def next(): Option[Path] = {
    ensureCandidate()
    if (candidates.isEmpty) None
    else {
      val p = candidates.dequeue()
      accepted += p
      Some(p)
    }
  }

  /** Make sure the candidate heap holds the true next path (generate spurs
    * of the most recently accepted path first).
    */
  private def ensureCandidate(): Unit = {
    if (accepted.isEmpty && candidates.isEmpty && !exhausted) {
      Dijkstra.shortestPath(g, s, t, bannedVertex = bannedInterior, weightOf = weightOf) match {
        case Some(p) if seen.add(p.vertices) =>
          deviationIndexOf(p.vertices) = 0
          candidates.enqueue(p)
        case _ => exhausted = true
      }
    } else if (accepted.nonEmpty && candidates.isEmpty) {
      generateSpurs(accepted.last)
    } else if (accepted.nonEmpty) {
      // Candidates generated so far might miss deviations of the last
      // accepted path; Yen requires generating them before the next pop.
      if (!spurredFrom.contains(accepted.last.vertices)) generateSpurs(accepted.last)
    }
  }

  private val spurredFrom = mutable.HashSet.empty[Vector[Int]]

  private def generateSpurs(prev: Path): Unit = {
    if (!spurredFrom.add(prev.vertices)) return
    val pv = prev.vertices
    var i = deviationIndexOf.getOrElse(pv, 0)
    while (i < pv.length - 1) {
      val spurNode = pv(i)
      val rootVertices = pv.take(i + 1)
      val rootEdges = prev.edgeIds.take(i)
      val w: Int => Double = if (weightOf == null) g.edgeWeight else weightOf
      val rootDist = rootEdges.map(w).sum
      // Ban the next edge of every accepted path sharing this root.
      val bannedEdges = mutable.HashSet.empty[Int]
      accepted.foreach { p =>
        if (p.vertices.length > i + 1 && p.vertices.take(i + 1) == rootVertices)
          bannedEdges += p.edgeIds(i)
      }
      // Ban root vertices except the spur node so the result stays simple.
      val bannedRoot = rootVertices.dropRight(1).toSet
      val spurPath = Dijkstra.shortestPath(
        g, spurNode, t,
        bannedVertex = v => bannedRoot.contains(v) || bannedInterior(v),
        bannedEdge = bannedEdges.contains,
        weightOf = weightOf,
        heuristic = hToT(_))
      spurPath.foreach { sp =>
        val full = Path(rootVertices ++ sp.vertices.tail, rootEdges ++ sp.edgeIds, rootDist + sp.distance)
        if (full.isSimple && seen.add(full.vertices)) {
          deviationIndexOf(full.vertices) = i
          candidates.enqueue(full)
        }
      }
      i += 1
    }
  }
}

object Yen {
  /** The k shortest simple paths from `s` to `t` (fewer if fewer exist). */
  def ksp(
      g: GraphOps,
      s: Int,
      t: Int,
      k: Int,
      interiorAllowed: Int => Boolean = _ => true,
      weightOf: Int => Double = null): Seq[Path] = {
    if (s == t) return Seq(Path(Vector(s), Vector.empty, 0.0))
    val it = new YenIterator(g, s, t, interiorAllowed, weightOf)
    val out = Seq.newBuilder[Path]
    var i = 0
    var done = false
    while (i < k && !done) {
      it.next() match {
        case Some(p) => out += p; i += 1
        case None => done = true
      }
    }
    out.result()
  }
}
