package repro.baselines

import repro.core.{Dijkstra, Partitioning, Path, Subgraph, WeightUpdate}
import scala.collection.mutable

/** CANDS [Yang et al., VLDB 2014] stand-in: distributed *single* shortest
  * path over a dynamic graph (Figures 40–41 comparator).
  *
  * Per subgraph it indexes the exact shortest path between every pair of
  * boundary vertices; queries run Dijkstra over the boundary-vertex overlay
  * and expand overlay edges to concrete paths. The price of exactness is
  * maintenance: any weight change inside a subgraph forces recomputation of
  * that subgraph's all-pairs boundary shortest paths — the cost the paper
  * contrasts with DTLP's recomputation-free bounding paths.
  */
final class Cands(val partitioning: Partitioning) extends Serializable {

  /** All-pairs boundary shortest paths of one subgraph (global-id keyed). */
  final class SubgraphSpIndex(val sg: Subgraph) extends Serializable {
    // (a, b) with a < b → shortest path a→b inside the subgraph, global ids.
    var paths: Map[(Int, Int), Path] = compute()

    private def compute(): Map[(Int, Int), Path] = {
      val out = mutable.HashMap.empty[(Int, Int), Path]
      sg.boundaryIds.foreach { aG =>
        val res = Dijkstra.run(sg.local, sg.localOf(aG))
        sg.boundaryIds.foreach { bG =>
          if (aG < bG) {
            res.pathTo(sg.localOf(bG)).foreach { p =>
              out((aG, bG)) = Path(p.vertices.map(sg.globalOf), p.edgeIds.map(sg.globalEdgeOfLocal), p.distance)
            }
          }
        }
      }
      out.toMap
    }

    /** Write `updates` (all owned by this subgraph) to the local copy and
      * recompute its all-pairs boundary paths.
      */
    def update(updates: Seq[WeightUpdate]): Unit = {
      updates.foreach(u => sg.local.weights(sg.localEdgeOfGlobal(u.edgeId)) = u.newWeight)
      paths = compute()
    }
  }

  val subIdx: Vector[SubgraphSpIndex] = partitioning.subgraphs.map(new SubgraphSpIndex(_))

  // Overlay adjacency (boundary hops only), cached between updates:
  // global vertex → (neighbor, path realizing the hop).
  private var overlayCache: Option[Map[Int, Seq[(Int, Path)]]] = None

  private def overlay(): Map[Int, Seq[(Int, Path)]] = overlayCache.getOrElse {
    val adj = mutable.HashMap.empty[Int, mutable.ArrayBuffer[(Int, Path)]]
    def add(p: Path): Unit = {
      adj.getOrElseUpdate(p.source, mutable.ArrayBuffer.empty) += ((p.target, p))
      val rev = Path(p.vertices.reverse, p.edgeIds.reverse, p.distance)
      adj.getOrElseUpdate(rev.source, mutable.ArrayBuffer.empty) += ((rev.target, rev))
    }
    subIdx.foreach(_.paths.valuesIterator.foreach(add))
    val built = adj.view.mapValues(_.toSeq).toMap
    overlayCache = Some(built)
    built
  }

  /** Maintenance: recompute every subgraph touched by the batch. */
  def update(batch: Seq[WeightUpdate]): Unit = {
    partitioning.routeUpdates(batch).foreach { case (sgId, us) => subIdx(sgId).update(us) }
    overlayCache = None
  }

  /** Exact single shortest path via the boundary overlay. */
  def shortestPath(s: Int, t: Int): Option[Path] = {
    if (s == t) return Some(Path(Vector(s), Vector.empty, 0.0))
    val base = overlay()
    // Graft the endpoints: shortest paths within their subgraphs to each
    // boundary vertex (and to the other endpoint when co-located).
    val extra = mutable.HashMap.empty[Int, mutable.ArrayBuffer[(Int, Path)]]
    def addExtra(p: Path): Unit = {
      extra.getOrElseUpdate(p.source, mutable.ArrayBuffer.empty) += ((p.target, p))
      val rev = Path(p.vertices.reverse, p.edgeIds.reverse, p.distance)
      extra.getOrElseUpdate(rev.source, mutable.ArrayBuffer.empty) += ((rev.target, rev))
    }
    Seq(s, t).distinct.foreach { v =>
      partitioning.subgraphsOfVertex(v).foreach { sgId =>
        val sg = partitioning.subgraphs(sgId)
        val res = Dijkstra.run(sg.local, sg.localOf(v))
        val targets = sg.boundaryIds.toSet ++ Set(s, t).filter(sg.contains) - v
        targets.foreach { bG =>
          res.pathTo(sg.localOf(bG)).foreach { p =>
            addExtra(Path(p.vertices.map(sg.globalOf), p.edgeIds.map(sg.globalEdgeOfLocal), p.distance))
          }
        }
      }
    }
    def neighbors(v: Int): Iterator[(Int, Path)] =
      base.getOrElse(v, Seq.empty).iterator ++ extra.getOrElse(v, mutable.ArrayBuffer.empty).iterator
    // Dijkstra over the overlay.
    val dist = mutable.HashMap(s -> 0.0)
    val parent = mutable.HashMap.empty[Int, Path] // hop that settled the vertex
    val settled = mutable.HashSet.empty[Int]
    val pq = mutable.PriorityQueue.empty[(Double, Int)](Ordering.by[(Double, Int), Double](_._1).reverse)
    pq.enqueue((0.0, s))
    while (pq.nonEmpty) {
      val (d, v) = pq.dequeue()
      if (settled.add(v)) {
        if (v == t) {
          var cur = t
          val hops = mutable.ArrayBuffer.empty[Path]
          while (cur != s) { val hop = parent(cur); hops += hop; cur = hop.source }
          return Some(hops.reverseIterator.reduce(_ ++ _))
        }
        neighbors(v).foreach { case (u, hop) =>
          if (!settled.contains(u)) {
            val nd = d + hop.distance
            if (nd < dist.getOrElse(u, Double.PositiveInfinity)) {
              dist(u) = nd; parent(u) = hop
              pq.enqueue((nd, u))
            }
          }
        }
      }
    }
    None
  }
}
