package repro.core

import scala.collection.mutable

/** The k-shortest-path kernel as it was before its hot loops moved onto
  * primitive arrays, frozen as a test oracle: boxed `(Double, Int)`
  * `PriorityQueue` Dijkstra, Yen with a `Set` of root vertices and a
  * `HashSet` of banned edges per spur, a `distinct`-based simplicity test
  * and the join that sorts, dedups and filters whole concatenations.
  * [[KernelDifferentialSpec]] checks that the production kernel returns the
  * same paths and the same distance bits.
  */
object ReferenceYen {

  def isSimple(p: Path): Boolean = p.vertices.distinct.size == p.vertices.size

  def dijkstra(
      g: GraphOps,
      source: Int,
      target: Int = -1,
      bannedVertex: Int => Boolean = _ => false,
      bannedEdge: Int => Boolean = _ => false,
      weightOf: Int => Double = null,
      heuristic: Int => Double = null,
      noTransit: Int => Boolean = _ => false): Dijkstra.Result = {
    val w: Int => Double = if (weightOf == null) g.edgeWeight else weightOf
    val h: Int => Double = if (heuristic == null || target < 0) _ => 0.0 else heuristic
    val n = g.numVertices
    val dist = Array.fill(n)(Double.PositiveInfinity)
    val pv = Array.fill(n)(-1)
    val pe = Array.fill(n)(-1)
    val settled = new Array[Boolean](n)
    val pq = mutable.PriorityQueue.empty[(Double, Int)](Ordering.by[(Double, Int), Double](_._1).reverse)
    dist(source) = 0.0
    pq.enqueue((h(source), source))
    while (pq.nonEmpty) {
      val (_, v) = pq.dequeue()
      if (!settled(v)) {
        settled(v) = true
        if (v == target) return new Dijkstra.Result(dist, pv, pe)
        if (!(bannedVertex(v) && v != source) && (v == source || !noTransit(v))) {
          val d = dist(v)
          g.foreachNeighbor(v) { (u, e) =>
            if (!settled(u) && !bannedEdge(e) && !(bannedVertex(u) && u != target)) {
              val nd = d + w(e)
              if (nd < dist(u)) {
                val hu = h(u)
                if (!hu.isInfinite) {
                  dist(u) = nd; pv(u) = v; pe(u) = e
                  pq.enqueue((nd + hu, u))
                }
              }
            }
          }
        }
      }
    }
    new Dijkstra.Result(dist, pv, pe)
  }

  private def pathTo(r: Dijkstra.Result, t: Int): Option[Path] = {
    if (r.dist(t).isInfinite) None
    else {
      var v = t
      val vrev = mutable.ArrayBuffer.empty[Int]
      val erev = mutable.ArrayBuffer.empty[Int]
      while (v >= 0) {
        vrev += v
        if (r.parentVertex(v) >= 0) erev += r.parentEdge(v)
        v = r.parentVertex(v)
      }
      Some(Path(vrev.reverseIterator.toVector, erev.reverseIterator.toVector, r.dist(t)))
    }
  }

  def shortestPath(
      g: GraphOps, s: Int, t: Int,
      bannedVertex: Int => Boolean = _ => false,
      bannedEdge: Int => Boolean = _ => false,
      weightOf: Int => Double = null,
      heuristic: Int => Double = null): Option[Path] =
    pathTo(dijkstra(g, s, t, bannedVertex, bannedEdge, weightOf, heuristic), t)

  final class Iterator(
      g: GraphOps,
      s: Int,
      t: Int,
      interiorAllowed: Int => Boolean = _ => true,
      weightOf: Int => Double = null) {

    private val accepted = mutable.ArrayBuffer.empty[Path]
    private val candidates =
      mutable.PriorityQueue.empty[Path](Ordering.by[Path, Double](_.distance).reverse)
    private val seen = mutable.HashSet.empty[Vector[Int]]
    private val deviationIndexOf = mutable.HashMap.empty[Vector[Int], Int]
    private var exhausted = false
    private lazy val hToT: Array[Double] = dijkstra(g, t, weightOf = weightOf).dist
    private val spurredFrom = mutable.HashSet.empty[Vector[Int]]

    private def bannedInterior(v: Int): Boolean = v != s && v != t && !interiorAllowed(v)

    def peekDistance(): Option[Double] = {
      ensureCandidate()
      candidates.headOption.map(_.distance)
    }

    def next(): Option[Path] = {
      ensureCandidate()
      if (candidates.isEmpty) None
      else {
        val p = candidates.dequeue()
        accepted += p
        Some(p)
      }
    }

    private def ensureCandidate(): Unit = {
      if (accepted.isEmpty && candidates.isEmpty && !exhausted) {
        shortestPath(g, s, t, bannedVertex = bannedInterior, weightOf = weightOf) match {
          case Some(p) if seen.add(p.vertices) =>
            deviationIndexOf(p.vertices) = 0
            candidates.enqueue(p)
          case _ => exhausted = true
        }
      } else if (accepted.nonEmpty && candidates.isEmpty) {
        generateSpurs(accepted.last)
      } else if (accepted.nonEmpty) {
        if (!spurredFrom.contains(accepted.last.vertices)) generateSpurs(accepted.last)
      }
    }

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
        val bannedEdges = mutable.HashSet.empty[Int]
        accepted.foreach { p =>
          if (p.vertices.length > i + 1 && p.vertices.take(i + 1) == rootVertices)
            bannedEdges += p.edgeIds(i)
        }
        val bannedRoot = rootVertices.dropRight(1).toSet
        val spurPath = shortestPath(
          g, spurNode, t,
          bannedVertex = v => bannedRoot.contains(v) || bannedInterior(v),
          bannedEdge = bannedEdges.contains,
          weightOf = weightOf,
          heuristic = hToT(_))
        spurPath.foreach { sp =>
          val full = Path(rootVertices ++ sp.vertices.tail, rootEdges ++ sp.edgeIds, rootDist + sp.distance)
          if (isSimple(full) && seen.add(full.vertices)) {
            deviationIndexOf(full.vertices) = i
            candidates.enqueue(full)
          }
        }
        i += 1
      }
    }
  }

  def ksp(
      g: GraphOps,
      s: Int,
      t: Int,
      k: Int,
      interiorAllowed: Int => Boolean = _ => true,
      weightOf: Int => Double = null): Seq[Path] = {
    if (s == t) return Seq(Path(Vector(s), Vector.empty, 0.0))
    val it = new Iterator(g, s, t, interiorAllowed, weightOf)
    scala.Iterator.continually(it.next()).takeWhile(_.isDefined).flatten.take(k).toSeq
  }

  /** The segment join with `k + extra` kept prefixes per step. */
  def joinSegments(segments: IndexedSeq[IndexedSeq[Path]], k: Int, extra: Int = 2): Seq[Path] = {
    if (segments.isEmpty || segments.exists(_.isEmpty)) return Seq.empty
    val keep = k + extra
    var prefixes: Seq[Path] = segments.head.filter(isSimple).sortBy(_.distance).take(keep)
    var i = 1
    while (i < segments.size && prefixes.nonEmpty) {
      prefixes = (for {
        c <- prefixes
        s <- segments(i)
        joined = c ++ s
        if isSimple(joined)
      } yield joined)
        .sortBy(_.distance)
        .distinctBy(_.vertices)
        .take(keep)
      i += 1
    }
    prefixes.take(k)
  }
}
